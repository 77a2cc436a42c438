"""Rung-0 array bookkeeping against row-at-a-time references, with ``==``.

:class:`ReferenceSurrogate` is the dict-based model the array surrogate
replaced, written with explicit left-to-right loops (no ``sum()``, whose
float result changed in CPython 3.12). Both models see the same random
observation streams, fed to the array model in random batch sizes; the
mean, the beam's per-axis value ranking and the gain of every config
must agree bit for bit, so the sampler proposes exactly what the
reference would. The sampler's stall set, promoted from per-stratum
heads, must equal promotion over every score.
"""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.explore import AXES
from repro.explore.budget import promote
from repro.explore.surrogate import _EXPLORE_BONUS, Surrogate, _stall_set
from tests.explore.test_space import spaces


class ReferenceSurrogate:
    """Per-axis + pairwise effect model, one observation at a time."""

    def __init__(self, radices):
        self.radices = radices
        self.n = 0
        self.total = 0.0
        self.axis_sum = [[0.0] * r for r in radices]
        self.axis_cnt = [[0] * r for r in radices]
        self.pairs = {
            (a, b): {}
            for a in range(len(radices))
            for b in range(a + 1, len(radices))
        }

    def observe(self, digits, score):
        self.n += 1
        self.total += score
        for axis, v in enumerate(digits):
            self.axis_sum[axis][v] += score
            self.axis_cnt[axis][v] += 1
        for (a, b), cells in self.pairs.items():
            cell = cells.setdefault((digits[a], digits[b]), [0.0, 0])
            cell[0] += score
            cell[1] += 1

    @property
    def mean(self):
        return self.total / self.n if self.n else 0.0

    def _axis_dev(self, axis, v):
        cnt = self.axis_cnt[axis][v]
        if cnt == 0:
            return 0.0
        return self.axis_sum[axis][v] / cnt - self.mean

    def predict(self, digits):
        mean = self.mean
        devs = [self._axis_dev(axis, v) for axis, v in enumerate(digits)]
        marginal = 0
        for dev in devs:
            marginal = marginal + dev
        out = mean + marginal
        for (a, b), cells in self.pairs.items():
            cell = cells.get((digits[a], digits[b]))
            if cell is None:
                continue
            out += cell[0] / cell[1] - mean - devs[a] - devs[b]
        return out

    def uncertainty(self, digits):
        thin = 0
        for axis, v in enumerate(digits):
            thin = thin + 1.0 / math.sqrt(1.0 + self.axis_cnt[axis][v])
        return thin * abs(self.mean) / len(self.radices)

    def gain(self, digits):
        return self.predict(digits) + _EXPLORE_BONUS * self.uncertainty(digits)

    def top_axis_values(self, width):
        out = []
        for axis, r in enumerate(self.radices):
            ranked = sorted(
                range(r),
                key=lambda v: (
                    0 if self.axis_cnt[axis][v] else 1,
                    -self._axis_dev(axis, v),
                    v,
                ),
            )
            out.append(ranked[: max(1, width)])
        return out


#: Scores as the sampler sees them: 0.0 for a disqualified config, else
#: positive lifetimes over several orders of magnitude.
scores = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
)


def _assert_agree(model, reference, rows):
    assert model.mean == reference.mean
    for width in (1, 2, 4):
        assert model.top_axis_values(width) == reference.top_axis_values(width)
    got = model.gain_rows(np.array(rows, dtype=np.int64).reshape(-1, len(AXES)))
    assert got.tolist() == [reference.gain(row) for row in rows]


@given(space=spaces(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_surrogate_matches_reference(space, data):
    radices = space.radices()
    stream = data.draw(
        st.lists(st.tuples(st.integers(0, space.size() - 1), scores), max_size=120)
    )
    model = Surrogate(space)
    reference = ReferenceSurrogate(radices)
    everything = [space.digits_at(i) for i in range(space.size())]
    _assert_agree(model, reference, everything)
    pos = 0
    while pos < len(stream):
        size = data.draw(st.integers(1, len(stream) - pos))
        batch = stream[pos : pos + size]
        pos += size
        rows = space.digits_array([index for index, _ in batch])
        model.observe_rows(rows, [score for _, score in batch])
        for index, score in batch:
            reference.observe(space.digits_at(index), score)
        _assert_agree(model, reference, everything)
    assert model.n == reference.n == len(stream)
    assert model.predict(everything[-1]) == reference.predict(everything[-1])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_stall_set_matches_promotion_over_every_score(data):
    strata = data.draw(st.lists(
        st.sampled_from([1.8, 2.3, 3.0, 4.0]), min_size=1, max_size=4, unique=True
    ))
    entries = data.draw(
        st.lists(st.tuples(scores, st.sampled_from(strata)), max_size=200)
    )
    keep = data.draw(st.integers(1, 40))
    # Indices in a scrambled order, so dict order is not index order.
    found = {(i * 7919) % 10_007: entry for i, entry in enumerate(entries)}
    score_of = {i: score for i, (score, _) in found.items()}
    deadline_of = {i: deadline for i, (_, deadline) in found.items()}
    chosen = promote(
        score_of.items(),
        keep,
        deadline=lambda entry: deadline_of[entry[0]],
        rank=lambda entry: (-entry[1], entry[0]),
    )
    want = tuple(sorted(index for index, _ in chosen))
    assert _stall_set(score_of, deadline_of, keep) == want
