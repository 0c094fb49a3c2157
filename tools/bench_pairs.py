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
OpenMP thread variables of the environment, and PYTHONDONTWRITEBYTECODE,
which when set makes every run compile the package as it imports it, about
half of ``import dipmix`` and so of ``setup_s``) and, per workload and metric,
each side's quartiles, the median ratio and the number of pairs the working
tree won, "won" following each metric's direction in BENCHMARK.json. Two
verdicts follow the repository's rules for a claimed gain and for no
regression, and are also printed to stderr:

- ``gain_rule_met``: at least ten pairs ran, the working tree won at least
  nine tenths of them (ties count for neither side), and its median beats the
  parent's by more than the parent's spread, q75 - q25;
- ``within_bound``: the working tree's median is no worse than the parent's
  by more than the metric's relative ``bound`` in BENCHMARK.json (null for a
  figure with no bound).

Each run also records two figures that the host-speed reference does not
rescale, run.py's "unscaled: items_per_s" and the CPU seconds the run took
(the RUSAGE_CHILDREN delta of user plus system time), and the reference
itself, the "reference median" on the same line of run.py's output. They are
summarized the same way, as ``unscaled_items_per_s`` (higher is better),
``cpu_s_per_op``, CPU seconds per attempted operation (lower is better), and
``reference_median_s`` (lower is a faster host). When the scaled figure moves
but the unscaled ones do not, the reference moved, not the work, and
``reference_median_s`` shows by how much.
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
BYTECODE_VAR = "PYTHONDONTWRITEBYTECODE"


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
    """One run.py run: (its result line, its unscaled items_per_s and reference
    median, each None when run.py printed none, its CPU seconds)."""
    before = child_cpu_s()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    cpu_s = child_cpu_s() - before
    if proc.returncode != 0:
        return ({"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}, None, None,
                cpu_s)
    unscaled = re.search(rf"^{workload} unscaled: items_per_s = (\S+) 1/s; "
                         rf"reference median (\S+) s", proc.stdout, re.M)
    items, reference = (float(v) for v in unscaled.groups()) if unscaled else (None, None)
    return json.loads(proc.stdout.strip().splitlines()[-1]), items, reference, cpu_s


def host() -> dict:
    """The machine and the environment variables that the runs inherit."""
    return {
        "cpus": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "bytecode_env": {BYTECODE_VAR: os.environ.get(BYTECODE_VAR)},
    }


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


UNSCALED = {"unscaled_items_per_s": "higher", "cpu_s_per_op": "lower",
            "reference_median_s": "lower"}


def value(result: dict, name: str) -> float:
    """A metric of one run's result, or one of the UNSCALED figures."""
    if name in ("unscaled_items_per_s", "reference_median_s"):
        return result[name]
    if name == "cpu_s_per_op":
        return result["child_cpu_s"] / result["attempted"]
    return result["metrics"][name]["value"]


def summarize(runs, end_to_end) -> dict:
    """Per workload, each metric's quartiles, ratio, wins and verdicts; ``end_to_end``
    lists BENCHMARK.json's metrics, each with its name, direction and bound."""
    summary = {}
    directions = {**{m["name"]: m["better"] for m in end_to_end}, **UNSCALED}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = {
                    **r["result"], "unscaled_items_per_s": r["unscaled_items_per_s"],
                    "reference_median_s": r["reference_median_s"],
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
            (q25, parent_median, q75), change_median = quartiles(parent), statistics.median(change)
            won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            bound = bounds.get(name)
            entry[name] = {
                "parent_q25_median_q75": [q25, parent_median, q75],
                "change_q25_median_q75": quartiles(change),
                "change_over_parent_median": change_median / parent_median,
                "change_better_in_pairs": won,
                "gain_rule_met": (len(pairs) >= 10 and won * 10 >= len(pairs) * 9
                                  and sign * (change_median - parent_median) > q75 - q25),
                "within_bound": None if bound is None else
                sign * (change_median - parent_median) >= -bound * abs(parent_median),
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
                result, unscaled, reference, cpu_s = run_once(sides[side], workload, seed,
                                                              seconds)
                runs.append({"run_index": len(runs), "workload": workload, "seed": seed,
                             "side": side, "position_in_pair": position, "result": result,
                             "unscaled_items_per_s": unscaled, "reference_median_s": reference,
                             "child_cpu_s": cpu_s})
                items = result.get("metrics", {}).get("items_per_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: " + (result.get("error") or (
                    f"items_per_s {items:.6g}, unscaled {unscaled:.6g}, reference "
                    f"{reference:.4g} s, cpu {cpu_s:.3g} s")), file=sys.stderr)

    summary = summarize(runs, bench["end_to_end"])
    for workload, entry in summary.items():
        for name, m in entry.items():
            if isinstance(m, dict):  # one metric's figures
                print(f"{workload} {name}: change/parent median "
                      f"{m['change_over_parent_median']:.4g}, won {m['change_better_in_pairs']}/"
                      f"{entry['pairs']}, gain_rule_met {m['gain_rule_met']}, within_bound "
                      f"{m['within_bound']}", file=sys.stderr)
    doc = {
        "what": (f"perfbench/run.py --seconds {seconds:g} --trace 0: parent {parent_rev} "
                 f"(side 'parent') against the working tree (side 'change'), one run per side "
                 f"per seed, each side in its own fresh copy; the parent runs first for odd "
                 f"seeds. Made by tools/bench_pairs.py."),
        "host": host(),
        "run_order": [f"{r['workload']}:{r['seed']}:{r['side']}" for r in runs],
        "summary": summary,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
