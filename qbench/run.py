#!/usr/bin/env python3
"""Build and run the qcut benchmark.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbench/run.py --self-test

Run from the root of a qcut source tree. The first call configures and
builds qbench/ (the qcut library, qcut-server and the driver) into
.bench_build/qbench; later calls rebuild incrementally. Build output goes to
stderr; stdout is the driver's, whose last line is the result JSON. The exit
code is the driver's: 0 only when every answer checked out.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "qbench"
DRIVER_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"qbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    for needed in ("CMakeLists.txt", "src/qcut", "tools/qcut_server_main.cpp"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a qcut source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "qbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main(argv):
    if argv == ["--self-test"]:
        build(["qbench_tests"])
        return subprocess.run([str(BUILD / "qbench_tests")]).returncode
    if "--workload" not in argv:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1 | --self-test")
    build(["qbench_driver", "qcut-server"])
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(BUILD / "qbench_driver"), *argv,
           "--server-bin", str(BUILD / "qcut" / "qcut-server"), "--work-dir", str(work)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s", 3)
    except KeyboardInterrupt:
        proc.terminate()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
