"""Adaptive exact-rung budgets: disagreement measurement, apportionment."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ConfigurationError
from repro.explore.budget import allocate_budgets, promote, rank_disagreement


def _round_robin(total: int, sizes: list[int]) -> list[int]:
    """One slot per stratum per rank, in stratum order, until spent."""
    alloc = [0] * len(sizes)
    while total > 0 and any(a < s for a, s in zip(alloc, sizes)):
        for i, size in enumerate(sizes):
            if total > 0 and alloc[i] < size:
                alloc[i] += 1
                total -= 1
    return alloc


class TestRankDisagreement:
    def test_identical_rankings(self):
        pairs = [(3.0, 30.0, 0), (2.0, 20.0, 1), (1.0, 10.0, 2)]
        assert rank_disagreement(pairs) == 0.0

    def test_reversed_rankings(self):
        pairs = [(3.0, 10.0, 0), (2.0, 20.0, 1), (1.0, 30.0, 2)]
        assert rank_disagreement(pairs) == 1.0

    def test_one_swap(self):
        pairs = [(3.0, 30.0, 0), (2.0, 10.0, 1), (1.0, 20.0, 2)]
        assert rank_disagreement(pairs) == pytest.approx(1 / 3)

    def test_fewer_than_two_items(self):
        assert rank_disagreement([]) == 0.0
        assert rank_disagreement([(1.0, 2.0, 0)]) == 0.0

    def test_ties_break_identically_in_both_orderings(self):
        # Equal scores on both sides: the shared index tie-break keeps
        # the orderings aligned, so ties are never counted as discord.
        pairs = [(1.0, 1.0, 0), (1.0, 1.0, 1), (1.0, 1.0, 2)]
        assert rank_disagreement(pairs) == 0.0


class TestAllocateBudgets:
    def test_equal_weights_reproduce_round_robin(self):
        # The legacy fixed strategy: keep=6 over three equal strata.
        assert allocate_budgets(6, [4, 4, 4], [0.0, 0.0, 0.0]) == [2, 2, 2]

    def test_equal_weights_non_divisible(self):
        # Remainder slots land on earlier strata, like the round-robin.
        assert allocate_budgets(5, [4, 4, 4], [0.0, 0.0, 0.0]) == [2, 2, 1]

    def test_disagreement_skews_allocation(self):
        out = allocate_budgets(6, [6, 6], [0.0, 1.0])
        assert sum(out) == 6
        assert out[1] > out[0]

    def test_caps_at_stratum_size(self):
        assert allocate_budgets(10, [2, 2], [0.0, 0.0]) == [2, 2]

    def test_floor_grants_each_nonempty_stratum_one(self):
        out = allocate_budgets(3, [5, 5, 5], [1.0, 0.0, 0.0])
        assert all(a >= 1 for a in out)
        assert sum(out) == 3

    def test_empty_strata_get_nothing(self):
        assert allocate_budgets(4, [0, 4], [1.0, 0.0]) == [0, 4]

    def test_zero_total(self):
        assert allocate_budgets(0, [3, 3], [0.5, 0.5]) == [0, 0]

    def test_single_stratum_gets_everything_it_can_hold(self):
        assert allocate_budgets(6, [4], [0.7]) == [4]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="total"):
            allocate_budgets(-1, [1], [0.0])
        with pytest.raises(ConfigurationError, match="lengths"):
            allocate_budgets(1, [1, 2], [0.0])

    @given(
        total=st.integers(0, 120),
        sizes=st.lists(st.integers(0, 30), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_weights_are_round_robin(self, total, sizes):
        assert allocate_budgets(total, sizes, [0.0] * len(sizes)) == (
            _round_robin(total, sizes)
        )


class TestPromote:
    # (index, score, deadline) triples.
    ITEMS = [(0, 5.0, 3.0), (1, 9.0, 2.3), (2, 7.0, 3.0), (3, 1.0, 2.3)]

    @staticmethod
    def _promote(items, keep, **kwargs):
        return promote(
            items, keep, lambda e: e[2], lambda e: (-e[1], e[0]), **kwargs
        )

    def test_strata_in_deadline_value_order(self):
        # keep=3 over two strata of two: the extra slot goes to the
        # shorter deadline whatever order the items arrive in.
        for items in (self.ITEMS, self.ITEMS[::-1]):
            got = self._promote(items, 3)
            assert [e[0] for e in got] == [1, 2, 3]

    def test_result_sorted_by_rank(self):
        got = self._promote(self.ITEMS, 4)
        assert [e[0] for e in got] == [1, 2, 0, 3]

    def test_arrange_orders_within_stratum(self):
        # Reverse-score order inside each stratum: the worst promotes.
        got = self._promote(
            self.ITEMS, 2, arrange=lambda g: sorted(g, key=lambda e: e[1])
        )
        assert [e[0] for e in got] == [0, 3]

    def test_weight_skews_the_split(self):
        items = [(i, float(i), 2.3 if i < 4 else 3.0) for i in range(8)]
        got = self._promote(
            items, 4, weight=lambda g: 1.0 if g[0][2] == 3.0 else 0.0
        )
        assert sum(e[2] == 3.0 for e in got) > sum(e[2] == 2.3 for e in got)
