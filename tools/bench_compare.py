#!/usr/bin/env python3
"""Compare qbench results of a parent commit and a change.

    python3 tools/bench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]
    python3 tools/bench_compare.py --collect RUNS... > BENCH_qbench.json
    python3 tools/bench_compare.py --self-test

PARENT and CHANGE are each a raw stdout capture of `qbench/run.py` (any
number of runs, concatenated) or a BENCH_qbench.json file. Runs pair up per
workload in the order they appear: the i-th parent run of a workload with
the i-th change run, so alternate parent and change runs when measuring.

For every workload and every end-to-end metric in BENCHMARK.json the table
prints the parent and change medians, the change in percent (negative is
lower), the parent's interquartile range in percent of its median, how many
pairs the change won, and the metric's bound. A change median worse than the
parent median by more than the bound is flagged, as is a rise in the share
of failed requests or a run whose answers did not check out. The exit code is
1 when anything is flagged, else 0.

--collect bundles raw run.py captures into the BENCH_qbench.json layout:
the first fingerprint plus one entry per run (workload, seed, host line and
result line), unchanged.

Standard library only.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_capture(text):
    """Runs from raw run.py stdout: a `generator` line opens a run and the
    next result line (a JSON object with "metrics") closes it."""
    fingerprint = None
    runs = []
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("fingerprint "):
            fingerprint = fingerprint or json.loads(line[len("fingerprint "):])
        elif line.startswith("generator "):
            gen = json.loads(line[len("generator "):])
            current = {"workload": gen["workload"], "seed": gen.get("seed")}
        elif line.startswith("host ") and current is not None:
            current["host"] = json.loads(line[len("host "):])
        elif line.startswith("{") and current is not None:
            result = json.loads(line)
            if "metrics" in result:
                current["result"] = result
                runs.append(current)
                current = None
    return {"fingerprint": fingerprint, "runs": runs}


def load_runs(path):
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return parse_capture(text)
    if not isinstance(doc, dict) or "runs" not in doc:
        raise SystemExit(f"bench_compare: {path} is neither a capture nor BENCH_qbench.json")
    return doc


def by_workload(runs):
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def failed_share(runs):
    attempted = sum(r["result"].get("attempted", 0) for r in runs)
    failed = sum(r["result"].get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def compare(parent, change, benchmark):
    """Returns (rows, flags): one row per (workload, metric) present on both
    sides, and a list of human-readable reasons to fail."""
    rows, flags = [], []
    par_w, chg_w = by_workload(parent["runs"]), by_workload(change["runs"])
    for run in parent["runs"] + change["runs"]:
        if not run["result"].get("correct", False):
            flags.append(f"{run['workload']} seed {run.get('seed')}: answers did not check out")
    for workload in sorted(set(par_w) & set(chg_w)):
        pruns, cruns = par_w[workload], chg_w[workload]
        if failed_share(cruns) > failed_share(pruns):
            flags.append(f"{workload}: failed-request share rose "
                         f"{failed_share(pruns):.4f} -> {failed_share(cruns):.4f}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in pruns
                  if name in r["result"]["metrics"]]
            cv = [r["result"]["metrics"][name]["value"] for r in cruns
                  if name in r["result"]["metrics"]]
            if not pv or not cv:
                continue
            lower = metric["better"] == "lower"
            pmed, cmed = statistics.median(pv), statistics.median(cv)
            q1, q3 = quartiles(pv)
            pairs = list(zip(pv, cv))
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            pct = 100.0 * (cmed - pmed) / pmed if pmed else 0.0
            worse = (pct if lower else -pct) / 100.0
            row = {
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": pmed, "change": cmed, "pct": pct,
                "iqr_pct": 100.0 * (q3 - q1) / pmed if pmed else 0.0,
                "wins": wins, "pairs": len(pairs), "bound": metric["bound"],
                "beyond_bound": worse > metric["bound"],
            }
            rows.append(row)
            if row["beyond_bound"]:
                flags.append(f"{workload} {name}: median {pct:+.1f}% is beyond the "
                             f"{100 * metric['bound']:.0f}% bound")
    return rows, flags


def render(rows):
    header = (f"{'workload':<15} {'metric':<20} {'parent':>11} {'change':>11} "
              f"{'change%':>8} {'IQR%':>6} {'wins':>6} {'bound':>6}  verdict")
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['workload']:<15} {r['metric']:<20} {r['parent']:>11.4g} {r['change']:>11.4g} "
            f"{r['pct']:>+7.1f}% {r['iqr_pct']:>5.1f}% {r['wins']:>2}/{r['pairs']:<3} "
            f"{100 * r['bound']:>5.0f}%  {'BEYOND BOUND' if r['beyond_bound'] else 'ok'}")
    return "\n".join(lines)


def collect(paths):
    fingerprint, runs = None, []
    for path in paths:
        doc = parse_capture(Path(path).read_text())
        fingerprint = fingerprint or doc["fingerprint"]
        runs.extend(doc["runs"])
    return {"fingerprint": fingerprint, "runs": runs}


def bench_json(doc):
    """The BENCH_qbench.json text: the fingerprint, then one run per line."""
    runs = ",\n  ".join(json.dumps(run) for run in doc["runs"])
    return f'{{"fingerprint": {json.dumps(doc["fingerprint"])},\n "runs": [\n  {runs}\n ]}}\n'


FIXTURE_HEAD = ('fingerprint {"nproc": 4, "provenance": {"simd_tier": "avx2"}}\n'
                'generator {"workload": "wide_fragment", "seed": %d}\n'
                'host {"cpu_steal_share": 0.01}\n')
FIXTURE_RESULT = ('{"correct": true, "attempted": 100, "failed": %d, "metrics": '
                  '{"latency_ms.p90": {"value": %s, "unit": "ms"}, '
                  '"requests_per_s": {"value": %s, "unit": "1/s"}}}\n')


def fixture(runs):
    return "".join(FIXTURE_HEAD % seed + "  latency_ms.p90  1 ms\n" + FIXTURE_RESULT % row
                   for seed, row in runs)


def self_test():
    bench = {"end_to_end": [
        {"name": "latency_ms.p90", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]}
    parent = parse_capture(fixture([(1, (0, "10.0", "100")), (2, (0, "12.0", "110")),
                                    (3, (0, "11.0", "90"))]))
    assert len(parent["runs"]) == 3 and parent["runs"][1]["seed"] == 2
    assert parent["fingerprint"]["nproc"] == 4
    change = parse_capture(fixture([(1, (0, "8.0", "120")), (2, (0, "9.0", "130")),
                                    (3, (0, "11.5", "60"))]))
    rows, flags = compare(parent, change, bench)
    p90, rps = rows
    assert (p90["parent"], p90["change"], p90["wins"], p90["pairs"]) == (11.0, 9.0, 2, 3)
    assert abs(p90["pct"] - (-200.0 / 11.0)) < 1e-9 and not p90["beyond_bound"]
    assert abs(p90["iqr_pct"] - 100.0 * 1.0 / 11.0) < 1e-9
    # requests_per_s: median 100 -> 120 is a gain; 2 of 3 pairs won.
    assert (rps["wins"], rps["beyond_bound"]) == (2, False) and flags == []
    # A higher-is-better median 25% down is beyond a 24% bound.
    slow = parse_capture(fixture([(1, (0, "10.0", "75")), (2, (0, "12.0", "80")),
                                  (3, (0, "11.0", "70"))]))
    rows, flags = compare(parent, slow, bench)
    assert rows[1]["beyond_bound"] and len(flags) == 1 and "requests_per_s" in flags[0]
    # A rise in the failed share is flagged, and so is an incorrect run.
    failing = parse_capture(fixture([(1, (3, "10.0", "100"))]).replace(
        '"correct": true', '"correct": false'))
    _, flags = compare(parent, failing, bench)
    assert any("failed-request share" in f for f in flags)
    assert any("did not check out" in f for f in flags)
    # A BENCH_qbench.json document reads back to the same runs.
    doc = json.loads(bench_json(change))
    assert compare(parent, doc, bench)[0] == compare(parent, change, bench)[0]
    assert "wide_fragment" in render(compare(parent, change, bench)[0])
    print("bench_compare self-test OK")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if argv and argv[0] == "--collect":
        if len(argv) < 2:
            raise SystemExit("usage: bench_compare.py --collect RUNS...")
        sys.stdout.write(bench_json(collect(argv[1:])))
        return 0
    bench_path = ROOT / "BENCHMARK.json"
    if "--benchmark" in argv:
        i = argv.index("--benchmark")
        bench_path = Path(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    if len(argv) != 2:
        raise SystemExit(__doc__)
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    rows, flags = compare(parent, change, json.loads(bench_path.read_text()))
    print(render(rows))
    for flag in flags:
        print("FLAG: " + flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
