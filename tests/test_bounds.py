"""Closed-form bounds, the density threshold, and bound tables."""

import pytest

from semlab import bounds as bounds_mod
from semlab.bounds import (
    j_threshold,
    l_bracket,
    l_lower_bound,
    prism_bounds,
)
from semlab.graphs import build_lower_bound_witness
from semlab.labelings import gap, sum_set


class TestLLowerBound:
    @pytest.mark.parametrize("n,expected", [(4, 7), (5, 10), (10, 31)])
    def test_values(self, n, expected):
        assert l_lower_bound(n) == expected

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            l_lower_bound(3)

    @pytest.mark.parametrize("n", range(4, 26))
    def test_witness_sits_one_below(self, n):
        g, f = build_lower_bound_witness(n)
        assert g.q == l_lower_bound(n) - 1
        assert gap(sum_set(g, f)) == 0


class TestLUpperBound:
    def test_n5_exactly_pins_the_value(self):
        res = l_bracket(5)
        assert (res.upper, res.upper_alpha) == (10, 0)
        assert res.lower == 10  # bracket closes: the threshold is 10

    def test_n8(self):
        res = l_bracket(8)
        assert (res.upper, res.upper_alpha, res.partial) == (27, 1, False)

    def test_n21_reaches_alpha_two(self):
        res = l_bracket(21, max_alpha=2)
        assert (res.upper, res.upper_alpha, res.partial) == (208, 2, True)

    def test_small_rejected(self):
        res = l_bracket(4)
        assert (res.upper, res.upper_alpha, res.partial) == (None, None, False)
        with pytest.raises(ValueError):
            l_bracket(3)

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_bracket_consistent(self, n):
        res = l_bracket(n)
        assert res.upper is not None
        assert res.lower <= res.upper

    def test_bracket_rows(self):
        row = l_bracket(8).as_row()
        assert row["n"] == 8
        assert row["lower"] == 21
        assert row["upper"] == 27
        row4 = l_bracket(4).as_row()
        assert row4["upper"] == ""


class TestJThreshold:
    def test_alpha_two_is_twenty_one(self):
        assert j_threshold(2) == 21

    def test_alpha_one_is_thirteen(self):
        assert j_threshold(1) == 13

    def test_alpha_three_matches_formula(self):
        # least n with n > (33 + sqrt(33^2 - (144 + 264 + 112))) / 2
        import math

        expr = (33 + math.sqrt(33 * 33 - (144 + 264 + 112))) / 2
        assert j_threshold(3) == math.floor(expr) + 1

    def test_threshold_is_tight(self):
        # At the threshold the quadratic inequality holds; just below it fails.
        for alpha in (1, 2, 3, 4):
            j = j_threshold(alpha)

            def holds(n, a=alpha):
                m = n - 2 * a
                return m * m - 5 * m + 14 - m * (m - 1) // 2 > 2 * a * (n - 1)

            assert holds(j)
            assert not holds(j - 1)

    def test_nondecreasing(self):
        vals = [j_threshold(a) for a in range(1, 11)]
        assert vals == sorted(vals)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            j_threshold(0)


class TestPrismBounds:
    def test_n4(self):
        # The decided value is the proven lower bound.
        row = prism_bounds(4)
        assert (row.lower, row.upper, row.old_upper, row.exact) == (5, 5, 5, 5)
        assert row.status == "exact"

    def test_n6(self):
        row = prism_bounds(6)
        assert (row.lower, row.upper, row.old_upper, row.exact) == (1, 7, None, 1)
        assert row.status == "exact"

    def test_n8(self):
        row = prism_bounds(8)
        assert (row.lower, row.upper, row.old_upper, row.exact) == (1, 9, 11, 1)
        assert row.status == "exact"

    def test_budget_stop_stays_open(self, monkeypatch):
        # D8 takes 795 nodes.
        monkeypatch.setattr(bounds_mod, "_PRISM_NODE_LIMIT", 794)
        row = prism_bounds(8)
        assert (row.lower, row.upper, row.exact, row.status) == (1, 9, None, "open")
        assert row.as_row()["provenance"] == (
            "bracket [1, n+1]; previous bound 3n/2-1 when 4 | n"
        )

    def test_odd_is_exactly_zero(self):
        row = prism_bounds(7)
        assert (row.lower, row.upper, row.exact, row.status) == (0, 0, 0, "exact")

    def test_new_bound_strictly_improves_for_large_multiples_of_four(self, monkeypatch):
        # The bracket is closed-form; a one-node search keeps the rows cheap.
        monkeypatch.setattr(bounds_mod, "_PRISM_NODE_LIMIT", 1)
        for n in range(8, 41, 4):
            row = prism_bounds(n)
            assert row.upper < row.old_upper
        assert prism_bounds(4).upper == prism_bounds(4).old_upper

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            prism_bounds(2)
