"""The A/B pair runner's summary and parsing (tools/ab_pairs.py) on fixed
numbers; no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 1.00, 0.97, 1.02, 1.01]


def test_nine_wins_and_a_tie_hold():
    change = [0.95, 0.96, 0.94, 0.95, 0.97, 0.96, 0.94, 0.95, 0.96, 1.01]
    s = ab_pairs.summarize(PARENT, change)
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (9, 0, 1, 10)
    # exclusive quartiles of the sorted parent runs: positions 2.75, 8.25
    assert s["parent"]["median"] == pytest.approx(1.005)
    assert s["parent"]["q1"] == pytest.approx(0.9875)
    assert s["parent"]["q3"] == pytest.approx(1.02)
    assert s["parent_iqr"] == pytest.approx(0.0325)
    assert s["change"]["median"] == pytest.approx(0.955)
    assert s["median_gain"] == pytest.approx(0.05)
    assert s["rule_holds"]


def test_ties_count_for_neither_side():
    # eight wins and two ties of ten is below nine tenths
    change = [p - 0.05 for p in PARENT[:8]] + PARENT[8:]
    s = ab_pairs.summarize(PARENT, change)
    assert (s["wins"], s["losses"], s["ties"]) == (8, 0, 2)
    assert not s["rule_holds"]


def test_gain_within_parent_spread_fails():
    # better in every pair, but by less than the parent's quartile spread
    s = ab_pairs.summarize(PARENT, [p - 0.01 for p in PARENT])
    assert s["wins"] == 10 and s["median_gain"] < s["parent_iqr"]
    assert not s["rule_holds"]


def test_higher_is_better():
    change = [p + 0.1 for p in PARENT]
    assert ab_pairs.summarize(PARENT, change, "higher")["rule_holds"]
    lower = ab_pairs.summarize(PARENT, change, "lower")
    assert (lower["wins"], lower["losses"]) == (0, 10)
    assert not lower["rule_holds"]


@pytest.mark.parametrize("parent, change", [([1.0], [0.9]),
                                            ([1.0, 1.1], [0.9])])
def test_needs_two_matched_pairs(parent, change):
    with pytest.raises(ValueError, match="two or more pairs"):
        ab_pairs.summarize(parent, change)


def test_parse_run_reads_result_and_digest():
    stdout = ("# followrl benchmark workload=train seed=1\n"
              "train    norm_wall_s    0.9 s\n"
              "digest train seed=1 1bc268b1\n"
              '{"correct": true, "attempted": 4, "failed": 0, "metrics": '
              '{"norm_wall_s": {"value": 0.9, "unit": "s"}}}\n')
    result, digest = ab_pairs.parse_run(stdout)
    assert result["correct"] is True and digest == "1bc268b1"
    assert result["metrics"]["norm_wall_s"]["value"] == 0.9


def test_digest_error_names_a_pair_that_differs():
    same = {"parent": {"digest": "1bc2"}, "change": {"digest": "1bc2"}}
    assert ab_pairs.digest_error(same) is None
    differs = {"parent": {"digest": "1bc2"}, "change": {"digest": "9f00"}}
    assert ab_pairs.digest_error(differs) == (
        "digests differ: parent 1bc2, change 9f00")
