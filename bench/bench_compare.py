#!/usr/bin/env python3
"""Compare FFT-stack micro-benchmarks against the recorded seed baseline.

Runs the bench_micro_dsp binary (google-benchmark) with JSON output,
extracts the FFT-dependent benchmarks, computes speedups against the
baseline numbers recorded before the plan-cache engine landed, and
writes the result to BENCH_fft.json at the repository root.

Usage:
    python3 bench/bench_compare.py [--bench-bin build/bench/bench_micro_dsp]
                                   [--out BENCH_fft.json]
                                   [--min-time 0.2]

Exit status is non-zero if the binary is missing or any acceptance
threshold (see THRESHOLDS) is not met, so the script doubles as a perf
regression gate. End-to-end timings of das_analyze, das_ingest and
das_serve live in perfbench (BENCHMARK.json), not here.
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Median real_time (ns) of the seed implementation (per-call twiddle
# recomputation, mutex-per-lookup cache, full-spectrum real FFT),
# measured on the reference container with --benchmark_min_time=0.2.
BASELINE_NS = {
    "BM_FftPow2/256": 8777,
    "BM_FftPow2/1024": 45928,
    "BM_FftPow2/4096": 224166,
    "BM_FftPow2/16384": 1073519,
    "BM_FftBluestein/250": 70155,
    "BM_FftBluestein/1000": 328381,
    "BM_FftBluestein/3750": 1567359,
    "BM_FftBluestein/15000": 6898800,
    "BM_Filtfilt/3000": 31359,
    "BM_Filtfilt/30000": 358454,
    "BM_Resample/3000": 175362,
    "BM_Resample/30000": 2232023,
    "BM_XcorrFull/1024": 430132,
    "BM_XcorrFull/8192": 4262248,
    "BM_Envelope/1024": 123785,
    "BM_Envelope/8192": 1332395,
    "BM_SpectralWhiten/4096": 631182,
}

# Acceptance gates (ISSUE: >= 1.5x on pow2 FFT, >= 2x on Bluestein).
THRESHOLDS = {
    "BM_FftPow2": 1.5,
    "BM_FftBluestein": 2.0,
}

FILTER = ("BM_FftPow2|BM_FftBluestein|BM_RfftHalf|BM_Filtfilt|BM_Resample"
          "|BM_XcorrFull|BM_Envelope|BM_SpectralWhiten")


def run_bench(bench_bin, min_time):
    cmd = [
        str(bench_bin),
        f"--benchmark_filter={FILTER}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-bin",
                        default=REPO_ROOT / "build" / "bench"
                        / "bench_micro_dsp")
    parser.add_argument("--out", default=REPO_ROOT / "BENCH_fft.json")
    parser.add_argument("--min-time", default="0.2")
    args = parser.parse_args()

    bench_bin = pathlib.Path(args.bench_bin)
    if not bench_bin.exists():
        print(f"bench_compare: binary not found: {bench_bin}\n"
              "build it first: cmake --build build -j --target "
              "bench_micro_dsp", file=sys.stderr)
        return 2

    raw = run_bench(bench_bin, args.min_time)

    results = {}
    for entry in raw.get("benchmarks", []):
        name = entry["name"]
        ns = entry["real_time"]
        row = {"current_ns": round(ns, 1)}
        if name in BASELINE_NS:
            row["baseline_ns"] = BASELINE_NS[name]
            row["speedup"] = round(BASELINE_NS[name] / ns, 2)
        results[name] = row

    failures = []
    for prefix, need in THRESHOLDS.items():
        cases = {n: r for n, r in results.items()
                 if n.startswith(prefix + "/") and "speedup" in r}
        for name, row in sorted(cases.items()):
            if row["speedup"] < need:
                failures.append(
                    f"{name}: {row['speedup']}x < required {need}x")

    report = {
        "description": "FFT-stack micro-benchmarks vs seed baseline "
                       "(real_time ns, lower is better)",
        "context": raw.get("context", {}),
        "thresholds": THRESHOLDS,
        "results": results,
        "passed": not failures,
        "failures": failures,
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for name, row in sorted(results.items()):
        speed = f"  {row['speedup']}x" if "speedup" in row else ""
        print(f"  {name}: {row['current_ns']} ns{speed}")
    if failures:
        print("FAILED thresholds:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
