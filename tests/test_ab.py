"""The claim rule of benchmarks/ab.py on synthetic paired runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [2.00, 2.10, 1.95, 2.05, 2.02, 1.98, 2.08, 2.01, 1.97, 2.04]


def _result(value):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "op_ms_p50": {"value": value, "unit": "ms"},
            "ops_per_s": {"value": 1000.0 / value, "unit": "ops/s"},
        },
    }


METRICS = {
    "op_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.25},
    "ops_per_s": {"unit": "ops/s", "better": "higher", "bound": 0.25},
}


def _pairs(base, head):
    return [
        {"base": {"w": _result(b)}, "head": {"w": _result(h)}}
        for b, h in zip(base, head)
    ]


class TestVerdict:
    def test_identical_aa_set_is_within_noise(self):
        row = ab.summarize(_pairs(BASE, list(BASE)), METRICS)["w"]
        for name in METRICS:
            assert row[name]["verdict"] == "within noise"
            assert row[name]["head_wins"] == 0
            assert row[name]["median_change"] == 0.0
            assert row[name]["within_bound"]

    def test_shuffled_aa_set_is_within_noise(self):
        head = BASE[1:] + BASE[:1]
        assert ab.verdict(BASE, head, "lower") == "within noise"
        assert ab.verdict(BASE, head, "higher") == "within noise"

    def test_clear_gain_in_every_pair(self):
        head = [0.65 * b for b in BASE]
        row = ab.summarize(_pairs(BASE, head), METRICS)["w"]
        assert row["op_ms_p50"]["verdict"] == "improved"
        assert row["ops_per_s"]["verdict"] == "improved"
        assert row["op_ms_p50"]["head_wins"] == 10
        assert row["op_ms_p50"]["median_change"] == pytest.approx(-0.35)

    def test_eight_of_ten_wins_is_not_enough(self):
        head = [0.65 * b for b in BASE]
        head[0] = head[1] = 3.0
        assert ab.verdict(BASE, head, "lower") == "within noise"
        head[1] = 0.65 * BASE[1]
        assert ab.verdict(BASE, head, "lower") == "improved"

    def test_a_tie_counts_for_neither_side(self):
        head = [0.65 * b for b in BASE]
        head[0], head[1] = BASE[0], BASE[1]
        assert ab.wins(BASE, head, "lower") == (8, 0)
        assert ab.verdict(BASE, head, "lower") == "within noise"

    def test_every_pair_won_inside_the_base_spread_is_noise(self):
        q1, _, q3 = ab.quartiles(BASE)
        head = [b - 0.5 * (q3 - q1) for b in BASE]
        assert ab.wins(BASE, head, "lower") == (10, 0)
        assert ab.verdict(BASE, head, "lower") == "within noise"

    def test_clear_loss_reads_worse_and_beyond_bound(self):
        head = [1.4 * b for b in BASE]
        row = ab.summarize(_pairs(BASE, head), METRICS)["w"]
        assert row["op_ms_p50"]["verdict"] == "worse"
        assert not row["op_ms_p50"]["within_bound"]
        assert row["ops_per_s"]["verdict"] == "worse"
        assert not row["ops_per_s"]["within_bound"]

    def test_summary_stores_the_sign_test_p_value(self):
        head = [0.65 * b for b in BASE]
        row = ab.summarize(_pairs(BASE, head), METRICS)["w"]
        assert row["op_ms_p50"]["sign_p"] == 2 / 1024
        row = ab.summarize(_pairs(BASE, list(BASE)), METRICS)["w"]
        assert row["op_ms_p50"]["sign_p"] == 1.0

    def test_quartiles(self):
        assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


class TestSignTest:
    @pytest.mark.parametrize(
        "head_wins, base_wins, p",
        [(10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024),
         (1, 9, 22 / 1024), (9, 0, 2 / 512), (5, 5, 1.0), (0, 0, 1.0),
         (8, 2, 112 / 1024)],
    )
    def test_exact_two_sided_p(self, head_wins, base_wins, p):
        assert ab.sign_test_p(head_wins, base_wins) == pytest.approx(p, rel=1e-15)

    def test_ties_are_dropped(self):
        """9 wins and a tie is a sign test on 9 pairs, not 10."""
        head = [0.65 * b for b in BASE]
        head[0] = BASE[0]
        assert ab.sign_test_p(*ab.wins(BASE, head, "lower")) == 2 / 512
