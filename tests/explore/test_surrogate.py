"""Model-guided rung-0 sampling: determinism and brute-force parity.

The load-bearing claim is that the sampler is *steering*, never
*scoring*: every number that enters promotion comes from the true
analytic prescreen, so on any space the sampler manages to exhaust —
and on the spaces below where its stall criterion fires early — the
guided ladder lands the exact frontier a brute-force enumeration
confirms.
"""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.explore import (
    AXES,
    POLICY_FAMILIES,
    Axis,
    SpaceSpec,
    default_space,
    explore,
)
from repro.explore.halving import RUNGS, RungReport, _prescreen
from repro.explore.surrogate import (
    Surrogate,
    _hamming1,
    _stall_set,
    _walk_stride,
    guided_sample,
)
from tests.explore.test_halving import small_space


def _true_evaluator(space):
    """The same rung-0 closure the scheduler wires up in guided mode."""
    structures: dict = {}
    drains: dict = {}
    report = RungReport("predict")
    disqualified: dict = {}

    def evaluate(indices):
        batch = [space.config_at(i) for i in indices]
        found = _prescreen(
            space, batch, report, disqualified, structures, drains
        )
        got = {c.config.index: c for c in found}
        return [got[i].score if i in got else None for i in indices]

    return evaluate


class TestWalkStride:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 120, 1000, 103_680])
    def test_full_period_permutation(self, n):
        stride = _walk_stride(n)
        assert math.gcd(stride, n) == 1
        seen = {(k * stride) % n for k in range(n)}
        assert seen == set(range(n))

    def test_deterministic(self):
        assert _walk_stride(103_680) == _walk_stride(103_680)


def _space(*radices):
    """A space whose first axes (policy, cut, rotation) have these radices."""
    values = {
        "policy": POLICY_FAMILIES,
        "cut": ((), (1,), (2,)),
        "rotation_period": (None, 25, 50, 100),
    }
    return SpaceSpec(axes=tuple(
        Axis.choice(name, *values[name][:radix])
        for name, radix in zip(values, radices)
    ))


class TestNeighbors:
    def test_hamming_one_count(self):
        space = _space(3, 1, 4)
        assert space.radices()[:3] == (3, 1, 4)
        digits = (1, 0, 2, 0, 0, 0, 0, 0)
        index = int(np.dot(digits, space.place_values()))
        assert space.digits_at(index) == digits
        moved = _hamming1(
            np.array([index]),
            space.digits_array([index]),
            space.radices(),
            space.place_values(),
        )
        got = [space.digits_at(i) for i in moved.tolist()]
        assert len(got) == (3 - 1) + (4 - 1)
        for other in got:
            assert sum(a != b for a, b in zip(other, digits)) == 1
        assert len(set(got)) == len(got)

    def test_index_round_trip(self):
        space = _space(3, 2, 4)
        space_size = 3 * 2 * 4
        places = space.place_values()
        seen = set()
        for a in range(3):
            for b in range(2):
                for c in range(4):
                    seen.add(a * places[0] + b * places[1] + c * places[2])
        assert seen == set(range(space_size))


class TestSurrogate:
    def test_constant_scores_predict_constant(self):
        space = small_space()
        model = Surrogate(space)
        for i in range(0, space.size(), 7):
            model.observe(space.digits_at(i), 5.0)
        assert model.predict(space.digits_at(3)) == pytest.approx(5.0)

    def test_learns_additive_axis_effect(self):
        space = small_space()
        axis = AXES.index("capacity_mah")
        model = Surrogate(space)
        for i in range(space.size()):
            digits = space.digits_at(i)
            model.observe(digits, float(digits[axis]))
        lo = model.predict(space.digits_at(0))
        hi_digits = tuple(
            4 if a == axis else d
            for a, d in enumerate(space.digits_at(0))
        )
        assert model.predict(hi_digits) > lo

    def test_unseen_values_rank_after_seen(self):
        space = small_space()
        model = Surrogate(space)
        model.observe(space.digits_at(0), 1.0)
        for ranked, digit in zip(model.top_axis_values(2), space.digits_at(0)):
            assert ranked[0] == digit


class TestStratifiedTop:
    """The sampler's stall set: rung 0's promotion over scored indices."""

    def test_single_stratum_is_topk(self):
        scores = {i: float(10 - i) for i in range(6)}
        assert _stall_set(scores, dict.fromkeys(scores, 2.3), 3) == (0, 1, 2)

    def test_round_robins_across_strata(self):
        scores = {0: 9.0, 1: 8.0, 2: 1.0, 3: 2.0}
        deadline_of = {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0}
        # rank 0 of each stratum first: 0 (9.0) and 3 (2.0).
        assert _stall_set(scores, deadline_of, 2) == (0, 3)

    def test_ties_break_on_index(self):
        scores = {5: 1.0, 2: 1.0}
        assert _stall_set(scores, dict.fromkeys(scores, 2.3), 1) == (2,)

    @pytest.mark.parametrize("keep", [7, 63, 65])
    def test_matches_rung0_promotion_on_descending_deadlines(self, keep):
        # Deadlines declared longest first: the value order of the
        # strata is the reverse of their digit order, and an odd keep
        # gives the first stratum in value order the extra slot.
        space = default_space(2, 3, 3, deadlines=(3.0, 2.3))
        candidates = _prescreen(
            space, space.configs(), RungReport("predict"), {}
        )
        want = sorted(
            c.config.index for c in RUNGS[0].promotion(candidates, keep)
        )
        scores = {c.config.index: c.score for c in candidates}
        deadline_of = {c.config.index: c.config.deadline_s for c in candidates}
        assert list(_stall_set(scores, deadline_of, keep)) == want

    @pytest.mark.parametrize("keep", [7, 63, 65])
    def test_stable_stop_closes_rung0_promotion(self, keep):
        # A "stable" stop certifies that every one-axis neighbor of the
        # set rung 0 will promote was scored.
        space = default_space(2, 3, 3, deadlines=(3.0, 2.3))
        seen: set[int] = set()
        evaluate = _true_evaluator(space)

        def recording(indices):
            seen.update(indices)
            return evaluate(indices)

        scores, report = guided_sample(space, keep, recording, probe=64)
        assert report.stop_reason == "stable"
        candidates = [
            c
            for c in _prescreen(
                space, space.configs(), RungReport("predict"), {}
            )
            if c.config.index in scores
        ]
        for cand in RUNGS[0].promotion(candidates, keep):
            index = cand.config.index
            moved = _hamming1(
                np.array([index]),
                space.digits_array([index]),
                space.radices(),
                space.place_values(),
            )
            for neighbor in moved.tolist():
                assert neighbor in seen


class TestGuidedSample:
    def test_rejects_bad_arguments(self):
        space = small_space()
        with pytest.raises(ConfigurationError, match="keep"):
            guided_sample(space, 0, _true_evaluator(space))
        with pytest.raises(ConfigurationError, match="probe"):
            guided_sample(space, 4, _true_evaluator(space), probe=0)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_rejects_limit_below_one(self, limit):
        space = small_space()
        with pytest.raises(ConfigurationError, match="limit must be >= 1"):
            guided_sample(space, 4, _true_evaluator(space), limit=limit)

    def test_deterministic_across_runs(self):
        space = small_space()
        a_scores, a_report = guided_sample(
            space, 8, _true_evaluator(space), probe=16
        )
        b_scores, b_report = guided_sample(
            space, 8, _true_evaluator(space), probe=16
        )
        assert a_scores == b_scores
        assert a_report.content() == b_report.content()

    def test_big_probe_exhausts_small_space(self):
        space = small_space()
        scores, report = guided_sample(space, 8, _true_evaluator(space))
        assert report.probed == space.size()
        assert report.stop_reason in ("stable", "exhausted")

    def test_small_probe_stops_stable_before_exhausting(self):
        space = small_space()
        scores, report = guided_sample(
            space, 8, _true_evaluator(space), probe=16
        )
        assert report.stop_reason == "stable"
        assert report.probed < space.size()

    def test_limit_restricts_to_strided_subsample(self):
        space = small_space()
        allowed = set(space.indices(40))
        scores, report = guided_sample(
            space, 4, _true_evaluator(space), limit=40, probe=8
        )
        assert report.universe == 40
        assert set(scores) <= allowed

    def test_scores_match_exhaustive_prescreen(self):
        space = small_space()
        scores, _ = guided_sample(space, 8, _true_evaluator(space))
        report = RungReport("predict")
        exhaustive = _prescreen(space, space.configs(), report, {})
        truth = {c.config.index: c.score for c in exhaustive}
        assert scores == truth


class TestGuidedVersusExhaustive:
    def test_full_ladder_frontier_identical(self):
        space = small_space()
        keep = (8, 4, 2)
        # A probe the size of the space scores every config: brute force.
        brute = explore(space, keep=keep, probe=space.size())
        guided = explore(space, keep=keep, probe=16)
        blob = lambda r: json.dumps(
            r.frontier_payload()["frontier"], sort_keys=True
        )
        assert blob(brute) == blob(guided)
        assert brute.sampler["stop_reason"] == "exhausted"
        assert brute.sampler["probed"] == brute.sampler["universe"]
        assert brute.sampler["universe"] == space.size()
        assert guided.sampler["stop_reason"] == "stable"

    def test_exhaustive_driver_removed(self):
        with pytest.raises(ConfigurationError, match="exhaustive"):
            explore(small_space(), keep=(8, 4, 2), guided=False)

    def test_default_space_rung0_promotion_identical(self):
        # The acceptance surface on the real 104k space, kept to the
        # analytic rung so it runs in seconds: the guided sampler must
        # hand rung 1 the exact candidate set exhaustive enumeration
        # promotes.
        space = default_space()
        keep0 = 512
        exhaustive = RUNGS[0].promotion(
            _prescreen(space, space.configs(), RungReport("predict"), {}),
            keep0,
        )
        want = sorted(c.config.index for c in exhaustive)

        scores, sampler = guided_sample(space, keep0, _true_evaluator(space))
        deadline_of = {i: space.config_at(i).deadline_s for i in scores}
        assert list(_stall_set(scores, deadline_of, keep0)) == want
        assert sampler.probed <= space.size()
