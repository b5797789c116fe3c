"""Summary statistics of tools/bench_compare.py on fixed numbers."""
import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", PATH)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def test_spread_is_median_and_quartile_distance():
    # statistics.quantiles([1..10], n=4) (exclusive) = 2.75, 5.5, 8.25
    got = bench_compare.spread([10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0])
    assert got == {"median": 5.5, "iqr": pytest.approx(5.5)}
    assert bench_compare.spread([4.0]) == {"median": 4.0, "iqr": 0.0}


def test_wins_count_the_better_side_and_not_ties():
    change, base = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert bench_compare.wins(change, base, "lower") == 2
    assert bench_compare.wins(change, base, "higher") == 1


def test_rotation_puts_each_arm_first_in_turn():
    assert [bench_compare.rotated(i)[0] for i in range(4)] == [
        "base", "change", "aa", "base"]
    assert sorted(bench_compare.rotated(1)) == sorted(bench_compare.ARMS)


def test_summary_of_a_claimed_gain():
    base = [50.0, 52.0, 54.0, 56.0, 48.0, 51.0, 53.0, 55.0, 49.0, 50.0]
    change = [b - 10.0 for b in base]
    change[3] = 60.0  # one lost pair of ten still meets nine tenths
    aa = [b + 0.5 for b in base]
    got = bench_compare.summarize({"base": base, "change": change, "aa": aa},
                                  "lower", 0.1)
    assert got["pairs"] == 10 and got["wins"] == 9 and got["aa_wins"] == 0
    assert got["base"]["median"] == 51.5
    assert got["change"]["median"] == 41.5
    assert got["change_base_ratio"] == pytest.approx(41.5 / 51.5)
    assert got["aa_base_ratio"] == pytest.approx(52.0 / 51.5)
    assert got["bound"] == 0.1
    assert got["gain"] and got["within_bound"]
    assert got["change"]["values"] == change


def test_summary_of_noise_and_of_a_regression():
    base = [1.0, 1.2, 0.8, 1.1, 0.9]
    # better medians inside the base IQR are no gain
    small = bench_compare.summarize(
        {"base": base, "change": [b - 0.05 for b in base], "aa": base}, "lower", 0.25)
    assert small["wins"] == 5 and not small["gain"] and small["within_bound"]
    # 30 % worse against a 25 % bound; for a higher-better metric the same
    # numbers are a gain
    worse = {"base": base, "change": [1.3 * b for b in base], "aa": base}
    assert not bench_compare.summarize(worse, "lower", 0.25)["within_bound"]
    assert bench_compare.summarize(worse, "higher", 0.25)["gain"]
