"""tools/bench_pairs.py's summary states the repository's verdicts: a claimed
gain needs at least nine tenths of at least ten pairs won and a median gap
wider than the parent's spread; no regression means a median within the
benchmark's bound. Its host block names the environment variables that change
what a run measures."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
END_TO_END = [{"name": "items_per_s", "better": "higher", "bound": 0.2},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def runs_of(parent, change, setup=(1.0, 1.0), unscaled=None):
    """Synthetic run records: pair i holds parent[i] and change[i] items_per_s,
    and unscaled[0][i] and unscaled[1][i] unscaled, by default half of those.
    The reference median is what run.py's scaling implies, 0.05 s x scaled /
    unscaled: 0.1 s when the unscaled figures are halves."""
    runs = []
    unscaled = unscaled or ([p / 2 for p in parent], [c / 2 for c in change])
    for seed, pair in enumerate(zip(parent, change, *unscaled), 1):
        for side, items, plain, setup_s in zip(("parent", "change"), pair[:2], pair[2:], setup):
            runs.append({"workload": "w", "seed": seed, "side": side,
                         "result": {"correct": True, "failed": 0, "attempted": 10, "metrics": {
                             "items_per_s": {"value": items}, "setup_s": {"value": setup_s},
                             "test_err": {"value": 0.1}}},
                         "unscaled_items_per_s": plain, "reference_median_s": 0.05 * (items / plain),
                         "child_cpu_s": 10 / items})
    return runs


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]  # q75-q25 2


@pytest.mark.parametrize("change,met", [
    ([p + 3 for p in PARENT], True),  # 10/10 won, median gap 3 > 2
    ([p + 1.5 for p in PARENT], False),  # 10/10 won, median gap 1.5 within the spread
    ([p + 3 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]], False),  # 8/10 won
    ([p + 3 for p in PARENT[:9]] + PARENT[9:], True),  # 9/10 won, the tie counts for neither
])
def test_gain_rule(change, met):
    entry = load_tool().summarize(runs_of(PARENT, change), END_TO_END)["w"]
    assert entry["pairs"] == 10
    assert entry["items_per_s"]["gain_rule_met"] is met
    # the unscaled figures are half and the inverse: the same verdict in their directions
    assert entry["unscaled_items_per_s"]["gain_rule_met"] is met
    assert entry["cpu_s_per_op"]["gain_rule_met"] is met
    # the work moved, not the reference
    reference = entry["reference_median_s"]
    assert reference["change_over_parent_median"] == 1.0
    assert reference["change_better_in_pairs"] == 0 and reference["gain_rule_met"] is False


def test_scaled_move_with_unchanged_work_is_a_reference_shift():
    halves = [p / 2 for p in PARENT]
    entry = load_tool().summarize(runs_of(PARENT, [p * 1.1 for p in PARENT],
                                          unscaled=(halves, halves)), END_TO_END)["w"]
    assert entry["items_per_s"]["change_over_parent_median"] == pytest.approx(1.1)
    assert entry["unscaled_items_per_s"]["change_over_parent_median"] == 1.0
    reference = entry["reference_median_s"]
    assert reference["change_over_parent_median"] == pytest.approx(1.1)
    assert reference["parent_q25_median_q75"] == pytest.approx([0.1] * 3)
    assert reference["change_better_in_pairs"] == 0  # a longer reference on every change run
    assert reference["within_bound"] is None


def test_gain_rule_needs_ten_pairs():
    entry = load_tool().summarize(runs_of(PARENT[:9], [p + 50 for p in PARENT[:9]]),
                                  END_TO_END)["w"]
    assert entry["items_per_s"]["change_better_in_pairs"] == 9
    assert entry["items_per_s"]["gain_rule_met"] is False


@pytest.mark.parametrize("scale,setup,within", [
    (0.81, (1.0, 1.24), True),  # 19% slower, 24% longer set-up: inside 20% and 25%
    (0.79, (1.0, 1.0), False),  # 21% slower
    (1.0, (1.0, 1.26), False),  # 26% longer set-up
])
def test_within_bound(scale, setup, within):
    entry = load_tool().summarize(runs_of(PARENT, [p * scale for p in PARENT], setup),
                                  END_TO_END)["w"]
    assert (entry["items_per_s"]["within_bound"] and entry["setup_s"]["within_bound"]) is within
    assert entry["items_per_s"]["within_bound"] is (scale >= 0.8)
    assert entry["setup_s"]["within_bound"] is (setup[1] <= 1.25)
    # figures with no bound in the benchmark get no verdict
    assert entry["unscaled_items_per_s"]["within_bound"] is None
    assert entry["test_err_identical_per_pair"] is True


def test_host_records_the_thread_and_bytecode_variables(monkeypatch):
    tool = load_tool()
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    host = tool.host()
    assert host["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert set(host["thread_env"]) == set(tool.THREAD_VARS)
    assert host["bytecode_env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert tool.host()["bytecode_env"] == {"PYTHONDONTWRITEBYTECODE": None}
