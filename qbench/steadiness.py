#!/usr/bin/env python3
"""Steadiness report: run one or more workloads with several seeds and print
each end-to-end metric's spread next to its bound from BENCHMARK.json.

    python3 qbench/steadiness.py --workload nme_plan --runs 5
    python3 qbench/steadiness.py --all --runs 10 --save first.json
    python3 qbench/steadiness.py --all --runs 10 --against first.json

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
"steady" when its spread is below a third of its bound. setup_s is exempt
from the spread check, but with --against every metric's median, setup_s
included, must not be worse than the saved median by more than its bound.
Exit code 1 when a run fails or a check does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tagged(lines, tag):
    """The JSON after `tag ` on the driver's tagged stdout line."""
    return json.loads(next((l[len(tag) + 1:] for l in lines if l.startswith(tag + " ")), "{}"))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "qbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = tagged(lines, "fingerprint")
    steal = tagged(lines, "host").get("cpu_steal_share", float("nan"))
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        return fingerprint, steal, None
    return fingerprint, steal, {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, new, old):
    """Relative worsening of `new` against `old` (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write the measured values to this JSON file")
    ap.add_argument("--against", help="compare medians with a file written by --save")
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    if not names:
        ap.error("name a --workload or pass --all")

    ok = True
    values = {}
    for name in names:
        runs = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            fingerprint, steal, metrics = run_once(name, seed, args.seconds)
            if metrics is None:
                print(f"{name} seed {seed}: run FAILED")
                ok = False
                continue
            runs.append(metrics)
            # Host CPU steal explains most run-to-run spread on shared VMs.
            print(f"{name} seed {seed}: steal {100 * steal:.1f}%  " + "  ".join(
                f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
        print(f"\n{name}: {len(runs)} runs, fingerprint {json.dumps(fingerprint)}")
        values[name] = {m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]}
        if len(runs) < 2:
            ok = False
            continue
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for m in bench["end_to_end"]:
            vals = values[name][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within" if spread <= m["bound"] else "NOISY")
            if m["name"] == "setup_s":
                verdict += " (exempt)"
            elif spread > m["bound"]:
                ok = False
            line = (f"  {m['name']:<22}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                    f"{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
            if args.against:
                old = json.loads(Path(args.against).read_text())[name][m["name"]]
                change = worse_by(m, statistics.median(vals), statistics.median(old))
                line += f"  vs saved {change:+.3f}"
                if change > m["bound"]:
                    line += " WORSE"
                    ok = False
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
