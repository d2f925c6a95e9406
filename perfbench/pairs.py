#!/usr/bin/env python3
"""Compares two builds of the program in alternating pairs of benchmark runs.

    python3 perfbench/pairs.py --parent HEAD~1 --change HEAD
    python3 perfbench/pairs.py --parent ../a --change ../b --pairs 12 \
        --workloads search_hot --held-out

Each side is a git revision of this repository (exported with `git archive`
into .bench_build/pairs/) or a directory holding a checkout. Both sides run
the benchmark code and BENCHMARK.json that sit beside this script, copied
over their own, so only the program differs. Every run lasts BENCHMARK.json's
run_seconds. Pair i runs both sides on seed DEFAULT_SEED + i (or on the
held-out seed), parent first when i is even and change first when it is odd.
The workloads default to those BENCHMARK.json gates.

Per workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs each side won (ties count for neither) and a
verdict against the metric's bound in BENCHMARK.json:

  improved    the change won at least 9 in 10 pairs and the medians differ,
              in its favour, by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread is wider than the bound and not every
              change run beat every parent run
  no worse    otherwise
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

# Fewer pairs cannot tell a 9-in-10 win from luck.
MIN_PAIRS = 10


def export(spec, name):
    """A checkout for `spec` (directory or git revision) with this
    benchmark copied in."""
    path = Path(spec)
    if not (path / "src").is_dir():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", spec],
                             check=True, stdout=subprocess.PIPE,
                             text=True).stdout.strip()
        path = ROOT / ".bench_build" / "pairs" / f"{name}-{rev[:12]}"
        if not path.is_dir():
            path.mkdir(parents=True)
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                     check=True, stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", str(path)], input=archive,
                           check=True)
    path = path.resolve()
    if path != ROOT:
        shutil.copytree(HERE, path / "perfbench", dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.exit(f"pairs: {checkout} {workload} seed {seed} failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cell(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    n = len(parent)
    change_wins = sum(better(c, p) for p, c in zip(parent, change))
    parent_wins = sum(better(p, c) for p, c in zip(parent, change))
    spread = p_q3 - p_q1
    worse_by = (c_med - p_med) if lower else (p_med - c_med)
    all_better = all(better(c, p) for c in change for p in parent)
    if change_wins >= 0.9 * n and better(c_med, p_med) \
            and abs(c_med - p_med) > spread:
        word = "improved"
    elif worse_by > bound * abs(p_med):
        word = "worse"
    elif spread > bound * abs(p_med) and not all_better:
        word = "unresolved"
    else:
        word = "no worse"
    return word, change_wins / n, parent_wins / n


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workloads",
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--held-out", action="store_true",
                        help=f"run every pair on the held-out seed "
                        f"{HELD_OUT_SEED}")
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    sides = {"parent": export(args.parent, "parent"),
             "change": export(args.change, "change")}
    values = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = HELD_OUT_SEED if args.held_out else DEFAULT_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                values[workload][side].append(
                    run_once(sides[side], workload, seed,
                             bench["run_seconds"]))
            print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} done",
                  file=sys.stderr)

    header = (f"{'workload':15} {'metric':18} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'chg won':>7} {'par won':>7} "
              f"verdict")
    print(header)
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [run[name] for run in values[workload]["parent"]]
            change = [run[name] for run in values[workload]["change"]]
            word, c_won, p_won = verdict(metric, parent, change)
            print(f"{workload:15} {name:18} {cell(parent):>30} "
                  f"{cell(change):>30} {c_won:7.0%} {p_won:7.0%} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
