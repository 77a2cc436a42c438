"""Deterministic model-guided sampling for rung 0 of the halving ladder.

Exhaustively prescreening a design space is fine at 10^5 configs and a
wall at 10^6+ — not because the analytic score is slow, but because
materializing every :class:`~repro.explore.space.ExploreConfig` costs
memory and time proportional to the whole space. The guided sampler
keeps the space *implicit*: configs exist only as enumeration indices
(decoded on demand via :meth:`SpaceSpec.config_at`), and a cheap
surrogate model decides which indices are worth scoring with the real
rung-0 evaluator.

The surrogate is a quantized two-way effect model in the ANOVA style:
a global mean, one additive deviation per (axis, value) cell, and one
per (axis-pair, value-pair) cell, all learned from the scores the true
evaluator has produced so far. It *steers* — every score that enters
promotion comes from the real prescreen; the model only proposes.

Each round proposes the union of three deterministic batches:

- **closure** — every unevaluated Hamming-1 neighbor (one axis moved
  one step to any other value) of the current stratified top set. The
  ladder cannot stop until this is empty, so the promoted set is
  locally optimal along every axis.
- **exploit** — the best unevaluated indices from a beam over the top
  axis values, ranked by predicted score plus an uncertainty bonus for
  thinly sampled cells.
- **explore** — the next slice of a fixed multiplicative permutation
  of the universe (a full-period stride walk), so coverage grows
  evenly and, on a small space, the sampler degenerates to exhaustive
  enumeration.

Determinism contract: no wall clock, no RNG. Every proposal is a pure
function of (space, keep, prior scores), ties break on enumeration
index, and the permutation stride is derived from the universe size
alone — so serial, ``--jobs N``, cache-replayed, and resumed runs
propose byte-identical batches in byte-identical order.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.errors import ConfigurationError
from repro.explore.budget import promote
from repro.explore.space import AXES, SpaceSpec

__all__ = [
    "GuidedReport",
    "Surrogate",
    "guided_sample",
]

#: Index of the deadline axis in :data:`AXES` (promotion stratifies on it).
_DEADLINE_AXIS = AXES.index("deadline_s")

#: Consecutive rounds the top set must survive unchanged before stopping.
_PATIENCE = 1

#: Safety cap on proposal rounds.
_MAX_ROUNDS = 64

#: Weight of the uncertainty bonus relative to the predicted score.
_EXPLORE_BONUS = 0.25

#: Beam width per axis when generating exploit candidates.
_BEAM_WIDTH = 4


@dataclasses.dataclass
class GuidedReport:
    """Accounting for one guided rung-0 sampling session.

    All fields are deterministic content: counts of proposals and
    rounds, and the reason the loop stopped (``"stable"`` — top set
    unchanged and its Hamming-1 closure fully evaluated;
    ``"exhausted"`` — the whole universe got scored; ``"max-rounds"``
    — the safety cap fired first).
    """

    universe: int = 0
    probed: int = 0
    rounds: int = 0
    proposals: int = 0
    stop_reason: str = ""

    def content(self) -> dict[str, t.Any]:
        return {
            "universe": self.universe,
            "probed": self.probed,
            "rounds": self.rounds,
            "proposals": self.proposals,
            "stop_reason": self.stop_reason,
        }


class Surrogate:
    """Quantized per-axis + pairwise-interaction effect model.

    Fit incrementally from ``(digits, score)`` observations; predicts
    ``mean + sum(axis deviations) + sum(pair deviations)`` with unseen
    cells contributing zero deviation. Disqualified configs enter as
    score 0.0 — below every feasible score (scores are positive
    lifetimes), steering proposals away from infeasible regions.
    """

    def __init__(self, space: SpaceSpec):
        self.radices = space.radices()
        self.n = 0
        self.total = 0.0
        # axis -> value -> (sum, count)
        self.axis_sum = [[0.0] * r for r in self.radices]
        self.axis_cnt = [[0] * r for r in self.radices]
        # (axis_a, axis_b) -> {(va, vb): (sum, count)}
        self.pairs: dict[tuple[int, int], dict[tuple[int, int], list]] = {
            (a, b): {}
            for a in range(len(self.radices))
            for b in range(a + 1, len(self.radices))
        }

    def observe(self, digits: tuple[int, ...], score: float) -> None:
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
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def _axis_dev(self, axis: int, v: int) -> float:
        cnt = self.axis_cnt[axis][v]
        if cnt == 0:
            return 0.0
        return self.axis_sum[axis][v] / cnt - self.mean

    def predict(self, digits: tuple[int, ...]) -> float:
        """Predicted rung-0 score for one config's digit tuple."""
        mean = self.mean
        out = mean
        devs = [self._axis_dev(axis, v) for axis, v in enumerate(digits)]
        out += sum(devs)
        for (a, b), cells in self.pairs.items():
            cell = cells.get((digits[a], digits[b]))
            if cell is None or cell[1] == 0:
                continue
            out += cell[0] / cell[1] - mean - devs[a] - devs[b]
        return out

    def uncertainty(self, digits: tuple[int, ...]) -> float:
        """How thinly sampled this config's cells are, in score units.

        ``1/sqrt(1+count)`` per axis cell, scaled by the score mean so
        the bonus stays commensurate with predictions as scores grow.
        """
        thin = sum(
            1.0 / math.sqrt(1.0 + self.axis_cnt[axis][v])
            for axis, v in enumerate(digits)
        )
        return thin * abs(self.mean) / len(self.radices)

    def top_axis_values(self, width: int) -> list[list[int]]:
        """Per axis, the ``width`` best value indices by marginal mean.

        Unseen values rank by value index after all seen ones — the
        exploit beam should favor what looks good, and the explore walk
        is responsible for eventually seeing everything.
        """
        out: list[list[int]] = []
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


def _stall_set(
    scores: t.Mapping[int, float],
    deadline_of: t.Mapping[int, float],
    keep: int,
) -> tuple[int, ...]:
    """The index set rung 0 promotes from ``scores``, sorted by index.

    The scheduler's own promotion rule,
    :func:`~repro.explore.budget.promote`, over the scored indices, with
    each index's deadline value from ``deadline_of`` — so the stall test
    watches exactly the set that will promote.
    """
    chosen = promote(
        scores.items(),
        keep,
        deadline=lambda entry: deadline_of[entry[0]],
        rank=lambda entry: (-entry[1], entry[0]),
    )
    return tuple(sorted(index for index, _ in chosen))


def _walk_stride(n: int) -> int:
    """An odd stride coprime with ``n``: a full-period permutation step.

    ``(k * stride) % n`` for ``k = 0..n-1`` then visits every index
    exactly once, spread across the space — the deterministic stand-in
    for random exploration. Derived from ``n`` alone.
    """
    if n <= 2:
        return 1
    stride = int(n * 0.6180339887) | 1  # golden-ratio fraction, odd
    while math.gcd(stride, n) != 1:
        stride += 2
    return stride % n or 1


def _neighbors(
    digits: tuple[int, ...], radices: tuple[int, ...]
) -> t.Iterator[tuple[int, ...]]:
    """Every Hamming-1 variant: one axis moved to any other value."""
    for axis, r in enumerate(radices):
        if r < 2:
            continue
        for v in range(r):
            if v != digits[axis]:
                yield digits[:axis] + (v,) + digits[axis + 1 :]


def _index_of(digits: t.Sequence[int], radices: t.Sequence[int]) -> int:
    out = 0
    for digit, radix in zip(digits, radices):
        out = out * radix + digit
    return out


def guided_sample(
    space: SpaceSpec,
    keep: int,
    evaluate: t.Callable[[list[int]], list[float | None]],
    *,
    limit: int | None = None,
    probe: int = 2048,
) -> tuple[dict[int, float], GuidedReport]:
    """Drive the propose/score loop until the top set goes quiet.

    Parameters
    ----------
    space, limit:
        The (possibly capped) universe. With a ``limit``, proposals are
        restricted to the same strided subsample the exhaustive path
        enumerates.
    keep:
        Rung-0 promotion budget — the set whose stability stops the loop.
    evaluate:
        The true scorer: takes enumeration indices, returns one score
        per index (``None`` = disqualified). The caller owns all
        bookkeeping side effects (rung report counts, verdicts).
    probe:
        Size of the initial stratified probe and of each round's
        exploit + explore batches (the closure batch is never capped —
        stopping requires it empty).

    Returns
    -------
    ``(scores, report)`` where ``scores`` maps every *feasible*
    evaluated index to its true rung-0 score.
    """
    if keep < 1:
        raise ConfigurationError(f"keep must be >= 1, got {keep}")
    if probe < 1:
        raise ConfigurationError(f"probe must be >= 1, got {probe}")
    radices = space.radices()
    full = space.size()
    if limit is not None and 0 < limit < full:
        universe = space.indices(limit)
        in_universe: t.Container[int] = set(universe)
    else:
        universe = None  # implicit range(full)
        in_universe = range(full)
    n = len(universe) if universe is not None else full
    report = GuidedReport(universe=n)
    model = Surrogate(space)
    scores: dict[int, float] = {}
    digits_of: dict[int, tuple[int, ...]] = {}
    deadline_of: dict[int, float] = {}
    deadlines = space.axis_values("deadline_s")
    evaluated: set[int] = set()

    def universe_at(pos: int) -> int:
        return universe[pos] if universe is not None else pos

    def run_batch(indices: list[int]) -> None:
        fresh = [i for i in indices if i not in evaluated]
        if not fresh:
            return
        report.proposals += len(fresh)
        for index, score in zip(fresh, evaluate(fresh)):
            evaluated.add(index)
            digits = space.digits_at(index)
            digits_of[index] = digits
            deadline_of[index] = deadlines[digits[_DEADLINE_AXIS]]
            model.observe(digits, score if score is not None else 0.0)
            if score is not None:
                scores[index] = score
        report.probed = len(evaluated)

    # -- initial probe: a strided walk plus per-axis value sweeps -------
    stride = _walk_stride(n)
    cursor = 0

    def walk(count: int) -> list[int]:
        nonlocal cursor
        out: list[int] = []
        while len(out) < count and cursor < n:
            out.append(universe_at((cursor * stride) % n))
            cursor += 1
        return out

    first = walk(min(probe, n))
    anchors = [
        space.digits_at(universe_at(0)),
        space.digits_at(universe_at(n // 2)),
        space.digits_at(universe_at(n - 1)),
    ]
    sweeps: list[int] = []
    for anchor in anchors:
        for axis, r in enumerate(radices):
            for v in range(r):
                index = _index_of(anchor[:axis] + (v,) + anchor[axis + 1 :], radices)
                if index in in_universe:
                    sweeps.append(index)
    run_batch(sorted(set(first) | set(sweeps)))

    # -- propose / score until the top set is stable and closed ---------
    prev_top: tuple[int, ...] | None = None
    stable = 0
    while True:
        report.rounds += 1
        top = _stall_set(scores, deadline_of, keep)
        closure: set[int] = set()
        for index in top:
            for neighbor in _neighbors(digits_of[index], radices):
                ni = _index_of(neighbor, radices)
                if ni not in evaluated and ni in in_universe:
                    closure.add(ni)
        stable = stable + 1 if top == prev_top else 0
        prev_top = top
        if not closure and stable >= _PATIENCE:
            report.stop_reason = "stable"
            break
        if len(evaluated) >= n:
            report.stop_reason = "exhausted"
            break
        if report.rounds >= _MAX_ROUNDS:
            report.stop_reason = "max-rounds"
            break

        proposals: set[int] = set(closure)
        # exploit: beam over top axis values, ranked by prediction+bonus
        beam = model.top_axis_values(_BEAM_WIDTH)
        candidates: list[tuple[float, int]] = []
        partial: list[list[int]] = [[]]
        for axis_values in beam:
            partial = [p + [v] for p in partial for v in axis_values]
        for combo in partial:
            digits = tuple(combo)
            index = _index_of(digits, radices)
            if index in evaluated or index not in in_universe:
                continue
            gain = model.predict(digits) + _EXPLORE_BONUS * model.uncertainty(
                digits
            )
            candidates.append((-gain, index))
        candidates.sort()
        proposals.update(index for _, index in candidates[: probe // 2])
        # explore: the next slice of the permutation walk
        proposals.update(walk(probe // 2))
        fresh = sorted(i for i in proposals if i not in evaluated)
        if not fresh:
            report.stop_reason = "exhausted"
            break
        run_batch(fresh)
    return scores, report
