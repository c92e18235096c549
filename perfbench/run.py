#!/usr/bin/env python3
"""Run one workload of the DASSA end-to-end benchmark.

    python3 perfbench/run.py --workload similarity_batch --seed 1 \
        --seconds 20 --trace 0

Run from the root of a DASSA checkout. The script builds the DASSA
libraries and the workload driver from that checkout (Release, under
.bench_build/, a no-op once built), generates the seeded inputs in a
separate untimed process, runs the measured process, and relays its
output. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1), each {"value", "unit"}. The line before it,
{"perfbench": ...}, holds the run context and the detail behind every
figure. The exit code is 0 only when the outputs checked correct.
Workloads, metrics and their meaning: perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("similarity_batch", "interferometry_batch", "ingest_stream",
             "serve_mixed")
# After the build, a run ends within TOTAL_TIMEOUT_S: each generation
# attempt gets GENERATE_TIMEOUT_S (it takes under 10 s), the measured
# process what is left.
TOTAL_TIMEOUT_S = 170
GENERATE_TIMEOUT_S = 30
# Input generation is retried, the measured process never is. Generation
# writes every input file through the io pool (ingest_stream: about
# 1 300 files), and on a busy host one ingest generation in 150 died
# of the ThreadPool::parallel_for defect (README.md, "Known
# defects"). Its output depends only on the seed.
GENERATE_ATTEMPTS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout, **kwargs):
    """subprocess.run with a timeout. On a timeout, log the state of
    every thread of the stuck process (name, kernel wait channel,
    syscall) before killing it, so that a hang can be located."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            for task in sorted(Path(f"/proc/{proc.pid}/task").glob("*")):
                state = []
                for name in ("comm", "wchan", "syscall"):
                    try:
                        state.append((task / name).read_text().strip())
                    except OSError:
                        state.append("?")
                log(f"stuck thread {task.name}: " + " | ".join(state))
            proc.kill()
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build(package, build_dir):
    """Configure (once) and build the driver; returns its path."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(package), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one program output before it is checked "
                         "(self-test: the run must fail)")
    args = ap.parse_args()

    package = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver = build(package, target / "perfbench")
    if driver is None:
        log("build failed; is this the root of a DASSA checkout?")
        return 1

    # Relative and short: the serve workload puts a unix socket in it.
    work = target / "pb-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = target / "pb-results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--data-dir", str(work)]
    start = time.monotonic()
    try:
        for attempt in range(1, GENERATE_ATTEMPTS + 1):
            gen = run_child([str(driver), "generate", *common],
                            GENERATE_TIMEOUT_S)
            if gen.returncode == 0:
                break
            log(f"input generation failed (exit {gen.returncode}), "
                f"attempt {attempt} of {GENERATE_ATTEMPTS}")
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
        else:
            return 1
        cmd = [str(driver), "run", *common, "--trace", str(args.trace),
               "--out-dir", str(results)]
        if args.corrupt:
            cmd.append("--corrupt")
        run = run_child(cmd, TOTAL_TIMEOUT_S - (time.monotonic() - start),
                        stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        log(f"{e.cmd[1]} timed out after {e.timeout:.0f} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"driver exited {run.returncode} without a result")
        return 1
    with open(results / f"{args.workload}.jsonl", "a") as history:
        history.write(lines[-2] + "\n" if len(lines) > 1 else "")
    print("\n".join(lines), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
