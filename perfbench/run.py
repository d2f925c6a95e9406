#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload search_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first run configures and compiles `perfbench/` (which builds the
repository's `src/` as a library) into `.bench_build/perfbench`; later runs
only re-link what changed. Build output goes to standard error. The last
line of standard output is the JSON result of `sse_perfbench` (see
perfbench/README.md). `--smoke` runs every workload briefly in traced mode
with the correctness and accounting checks enforced, for the benchmark's
own test.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sse_perfbench"
WORKLOADS = ("search_hot", "visit_mixed", "fp_hot_updates")
DEFAULT_SEED = 1
# Reserved for confirming a claimed gain on inputs no change was tuned on.
HELD_OUT_SEED = 7919
SMOKE_SECONDS = 0.5


def run_timeout(seconds):
    """A run's time limit. The op count is fixed, so a slower program runs
    longer: a traced run (two timed phases of about `seconds` each plus two
    set-ups) still reports its figures when the program is five times
    slower; only a hang is cut off."""
    return 60 + 10 * seconds


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ beside perfbench/; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        *generator], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_binary(workload, seed, seconds, trace, scratch, extra=()):
    """Runs sse_perfbench; returns (exit code, stdout lines)."""
    timeout = run_timeout(seconds)
    try:
        proc = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), *extra,
             "--dir", str(scratch)],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:g}s", file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def smoke():
    ok = True
    for workload in WORKLOADS:
        code, lines = run_binary(workload, DEFAULT_SEED, SMOKE_SECONDS, 1,
                                 BUILD / f"smoke-{workload}", ["--smoke"])
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {}
        passed = code == 0 and result.get("correct") is True
        print(f"smoke {workload}: {'ok' if passed else 'FAILED'}")
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans "
                        "as Chrome trace-event JSON to this file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if args.smoke:
        return smoke()

    extra = ["--trace-out", str(Path(args.trace_out).resolve())] \
        if args.trace_out else []
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace, BUILD / f"run-{os.getpid()}", extra)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines), file=sys.stderr)
        return code or 1
    # A failed correctness check still prints its result (correct: false)
    # and exits non-zero.
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
