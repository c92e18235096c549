#!/usr/bin/env python3
"""Self-test of the DASSA end-to-end benchmark. Run from the checkout root:

    python3 perfbench/selftest.py [--workload W ...]

For each workload it checks that
  * a short clean run passes: exit 0, correct=true, failed=0, and it
    prints exactly the metrics BENCHMARK.json declares, traced and not;
  * a run with one program output corrupted on purpose (run.py
    --corrupt) fails: non-zero exit, correct=false, failed >= 1.
Then it checks that run.py refuses to report from a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("similarity_batch", "interferometry_batch", "ingest_stream",
             "serve_mixed")


def run(args, cwd="."):
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    workloads = ap.parse_args().workload or WORKLOADS
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in workloads:
        for trace in (0, 1):
            code, res = run(["--workload", w, "--seed", "3", "--seconds", "2",
                             "--trace", str(trace)])
            expect(code == 0 and res is not None and res["correct"] and
                   res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace={trace}: clean run passes")
            expect(res is not None and set(res["metrics"]) == declared[trace],
                   f"{w} trace={trace}: prints every declared metric")
        code, res = run(["--workload", w, "--seed", "3", "--seconds", "2",
                         "--trace", "0", "--corrupt"])
        expect(code != 0 and res is not None and not res["correct"] and
               res["failed"] >= 1, f"{w}: a corrupted output fails the run")

    lone = Path(".bench_build") / "pb-lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", lone)
    for path in spec["paths"]:
        shutil.copytree(path, lone / path)
    try:
        code, res = run(["--workload", workloads[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=lone)
        expect(code != 0 and res is None,
               "outside a DASSA checkout: fails without a result")
    finally:
        shutil.rmtree(lone, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
