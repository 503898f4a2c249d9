"""The paired comparison of tools/ab_pairs.py, on made-up run values."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_wins_count_the_better_side_and_ties_count_for_neither():
    parent = [10.0, 10.0, 10.0, 10.0]
    c = ab_pairs.compare(parent, [9.0, 10.0, 11.0, 8.0], "lower")
    assert c["wins"] == 2
    c = ab_pairs.compare(parent, [9.0, 10.0, 11.0, 8.0], "higher")
    assert c["wins"] == 1


def test_quartiles_and_iqr_of_each_side():
    c = ab_pairs.compare([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 2.0, 2.0, 2.0], "lower")
    assert c["parent_median"] == 3.0
    assert (c["parent_q1"], c["parent_q3"]) == (1.5, 4.5)
    assert c["parent_iqr"] == 3.0 and c["change_iqr"] == 0.0


@pytest.mark.parametrize(
    "change, better, gain",
    [
        ([9.0] * 9 + [10.5], "lower", True),    # 9 of 10 and 1.0 beyond an IQR of 0.5
        ([9.0] * 8 + [10.5] * 2, "lower", False),  # 8 of 10
        ([9.7] * 10, "lower", False),           # every pair, but inside the parent's IQR
        ([9.0] * 10, "higher", False),          # better only in the other direction
        ([11.0] * 10, "higher", True),
    ],
)
def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_iqr(change, better, gain):
    parent = [9.75, 10.25] * 5  # median 10, IQR 0.5
    assert ab_pairs.compare(parent, change, better)["gain"] is gain
