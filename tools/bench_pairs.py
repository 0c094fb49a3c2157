"""Run perfbench/run.py on a parent commit and on the working tree, in pairs.

    python3 tools/bench_pairs.py --parent REV --label NAME \
        --pairs train_dip_s4=10 --pairs train_plain=6 [--first-seed 1] [--seconds 10]

Both sides run from fresh copies made under --workdir (a new temporary
directory by default): the parent from ``git archive REV``, the working tree
from every tracked or untracked, not ignored, file. Pair i of a workload runs
both sides with seed first_seed + i; the parent goes first for odd seeds
and the working tree for even ones, so a drift in the host's speed does not
favour one side. Every result line is kept, in run order.

The output, BENCH_<label>.json in the repository root, holds those lines,
the run order, the host (CPU count, Python and numpy versions, the BLAS and
OpenMP thread variables of the environment) and, per workload and metric,
each side's quartiles, the median ratio and the number of pairs the working
tree won, "won" following each metric's direction in BENCHMARK.json.

Each run also records two figures that the host-speed reference does not
rescale: run.py's "unscaled: items_per_s" line and the CPU seconds the run
took (the RUSAGE_CHILDREN delta of user plus system time). They are
summarized the same way, as ``unscaled_items_per_s`` (higher is better) and
``cpu_s_per_op``, CPU seconds per attempted operation (lower is better). When
the scaled figure moves but these do not, the reference moved, not the work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def export_parent(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path) -> None:
    dest.mkdir(parents=True)
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
                           check=True, capture_output=True).stdout
    files = [name for name in names.decode().split("\0") if name and (ROOT / name).is_file()]
    tar = subprocess.run(["tar", "-c", "-C", str(ROOT), "--null", "-T", "-"],
                         input="\0".join(files).encode(), check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One run.py run: (its result line, its unscaled items_per_s, its CPU seconds)."""
    before = child_cpu_s()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    cpu_s = child_cpu_s() - before
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}, None, cpu_s
    unscaled = re.search(rf"^{workload} unscaled: items_per_s = (\S+) 1/s", proc.stdout, re.M)
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            float(unscaled.group(1)) if unscaled else None, cpu_s)


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


UNSCALED = {"unscaled_items_per_s": "higher", "cpu_s_per_op": "lower"}


def value(result: dict, name: str) -> float:
    """A metric of one run's result, or one of the UNSCALED figures."""
    if name == "unscaled_items_per_s":
        return result["unscaled_items_per_s"]
    if name == "cpu_s_per_op":
        return result["child_cpu_s"] / result["attempted"]
    return result["metrics"][name]["value"]


def summarize(runs, directions) -> dict:
    summary = {}
    directions = {**directions, **UNSCALED}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = {
                    **r["result"], "unscaled_items_per_s": r["unscaled_items_per_s"],
                    "child_cpu_s": r["child_cpu_s"]}
        pairs = [p for p in by_seed.values() if "metrics" in p.get("parent", {})
                 and "metrics" in p.get("change", {})]
        entry = {
            "pairs": len(pairs),
            "seeds": sorted(by_seed),
            "all_correct": all(p[side].get("correct") and p[side].get("failed") == 0
                               for p in by_seed.values() for side in ("parent", "change")
                               if side in p),
        }
        for name, better in directions.items() if len(pairs) >= 2 else ():
            parent = [value(p["parent"], name) for p in pairs]
            change = [value(p["change"], name) for p in pairs]
            sign = 1 if better == "higher" else -1
            entry[name] = {
                "parent_q25_median_q75": quartiles(parent),
                "change_q25_median_q75": quartiles(change),
                "change_over_parent_median": statistics.median(change) / statistics.median(parent),
                "change_better_in_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            }
        if pairs:
            entry["test_err_identical_per_pair"] = all(
                p["parent"]["metrics"]["test_err"]["value"]
                == p["change"]["metrics"]["test_err"]["value"] for p in pairs)
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="pairs to run for one workload; repeat for more workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two copies go; a new temporary directory by default")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in known or not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs takes WORKLOAD=N with a workload of BENCHMARK.json, "
                         f"got {item!r}")
        plan.append((workload, int(count)))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    export_parent(args.parent, sides["parent"])
    export_worktree(sides["change"])
    parent_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
                                capture_output=True, text=True).stdout.strip()

    runs = []
    for workload, count in plan:
        for i in range(count):
            seed = args.first_seed + i
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for position, side in enumerate(order, 1):
                result, unscaled, cpu_s = run_once(sides[side], workload, seed, seconds)
                runs.append({"run_index": len(runs), "workload": workload, "seed": seed,
                             "side": side, "position_in_pair": position, "result": result,
                             "unscaled_items_per_s": unscaled, "child_cpu_s": cpu_s})
                items = result.get("metrics", {}).get("items_per_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: " + (result.get("error") or (
                    f"items_per_s {items:.6g}, unscaled {unscaled:.6g}, cpu {cpu_s:.3g} s")),
                      file=sys.stderr)

    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {
        "what": (f"perfbench/run.py --seconds {seconds:g} --trace 0: parent {parent_rev} "
                 f"(side 'parent') against the working tree (side 'change'), one run per side "
                 f"per seed, each side in its own fresh copy; the parent runs first for odd "
                 f"seeds. Made by tools/bench_pairs.py."),
        "host": {
            "cpus": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        },
        "run_order": [f"{r['workload']}:{r['seed']}:{r['side']}" for r in runs],
        "summary": summarize(runs, directions),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
