"""Deterministic model-guided sampling for rung 0 of the halving ladder.

Exhaustively prescreening a design space is fine at 10^5 configs and a
wall at 10^6+ — not because the analytic score is slow, but because
materializing every :class:`~repro.explore.space.ExploreConfig` costs
memory and time proportional to the whole space. The guided sampler
keeps the space *implicit*: configs exist only as enumeration indices
(decoded a batch at a time by :meth:`SpaceSpec.digits_array`), and a cheap
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
propose byte-identical batches in byte-identical order. The model's
arithmetic runs in one fixed, left-to-right float order with no
reductions, so its rankings do not depend on the interpreter's
``sum()`` either (DESIGN.md §14).
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

import numpy as np

from repro.errors import ConfigurationError
from repro.explore.budget import promote
from repro.explore.space import AXES, SpaceSpec, check_limit

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

    Fit from ``(digits, score)`` observations; predicts
    ``mean + sum(axis deviations) + sum(pair deviations)`` with unseen
    cells contributing nothing. Disqualified configs enter as score 0.0
    — below every feasible score (scores are positive lifetimes),
    steering proposals away from infeasible regions.

    State is dense: per axis, ``(sum, count)`` arrays over its values;
    per axis pair ``(a, b)``, one flattened ``ra * rb`` array pair with
    cell ``va * rb + vb``. A pair's cells never outnumber the space's
    configs. Every method works on a whole ``(n, len(AXES))`` digit
    matrix and keeps the float order of a one-row, left-to-right
    evaluation (DESIGN.md §14): cell sums accumulate in observation
    order, and no reduction (``sum()``, ``np.sum``) regroups terms.
    """

    def __init__(self, space: SpaceSpec):
        self.radices = space.radices()
        self.n = 0
        self.total = 0.0
        self.axis_sum = [np.zeros(r) for r in self.radices]
        self.axis_cnt = [np.zeros(r, dtype=np.int64) for r in self.radices]
        self.pairs = [
            (a, b)
            for a in range(len(self.radices))
            for b in range(a + 1, len(self.radices))
        ]
        self.pair_sum = [
            np.zeros(self.radices[a] * self.radices[b]) for a, b in self.pairs
        ]
        self.pair_cnt = [
            np.zeros(self.radices[a] * self.radices[b], dtype=np.int64)
            for a, b in self.pairs
        ]

    def _cells(self, rows: np.ndarray, pair: int) -> np.ndarray:
        a, b = self.pairs[pair]
        return rows[:, a] * self.radices[b] + rows[:, b]

    def observe_rows(self, rows: np.ndarray, scores: t.Sequence[float]) -> None:
        """Fold in one score per digit row, in row order."""
        for score in scores:
            self.total += score
        self.n += len(scores)
        values = np.asarray(scores, dtype=float)
        for axis in range(len(self.radices)):
            np.add.at(self.axis_sum[axis], rows[:, axis], values)
            np.add.at(self.axis_cnt[axis], rows[:, axis], 1)
        for pair in range(len(self.pairs)):
            cells = self._cells(rows, pair)
            np.add.at(self.pair_sum[pair], cells, values)
            np.add.at(self.pair_cnt[pair], cells, 1)

    def observe(self, digits: t.Sequence[int], score: float) -> None:
        self.observe_rows(np.array([digits]), [score])

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def _axis_devs(self) -> list[np.ndarray]:
        """Per axis, each value's marginal mean minus the global mean."""
        mean = self.mean
        out = []
        for sums, counts in zip(self.axis_sum, self.axis_cnt):
            seen = counts > 0
            dev = np.zeros(len(sums))
            dev[seen] = sums[seen] / counts[seen] - mean
            out.append(dev)
        return out

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """Predicted rung-0 score per digit row."""
        mean = self.mean
        devs = [
            table[rows[:, axis]] for axis, table in enumerate(self._axis_devs())
        ]
        marginal = np.zeros(len(rows))
        for dev in devs:
            marginal = marginal + dev
        out = mean + marginal
        for pair, (a, b) in enumerate(self.pairs):
            cells = self._cells(rows, pair)
            counts = self.pair_cnt[pair][cells]
            seen = counts > 0
            term = self.pair_sum[pair][cells] / np.maximum(counts, 1)
            term = ((term - mean) - devs[a]) - devs[b]
            np.add(out, term, out=out, where=seen)
        return out

    def predict(self, digits: t.Sequence[int]) -> float:
        """Predicted rung-0 score for one config's digit tuple."""
        return float(self.predict_rows(np.array([digits]))[0])

    def uncertainty_rows(self, rows: np.ndarray) -> np.ndarray:
        """How thinly sampled each row's cells are, in score units.

        ``1/sqrt(1+count)`` per axis cell, scaled by the score mean so
        the bonus stays commensurate with predictions as scores grow.
        """
        thin = np.zeros(len(rows))
        for axis, counts in enumerate(self.axis_cnt):
            thin = thin + 1.0 / np.sqrt(1.0 + counts[rows[:, axis]])
        return thin * abs(self.mean) / len(self.radices)

    def gain_rows(self, rows: np.ndarray) -> np.ndarray:
        """The exploit beam's ranking key: prediction plus a thin-cell bonus."""
        bonus = _EXPLORE_BONUS * self.uncertainty_rows(rows)
        return self.predict_rows(rows) + bonus

    def top_axis_values(self, width: int) -> list[list[int]]:
        """Per axis, the ``width`` best value indices by marginal mean.

        Unseen values rank by value index after all seen ones — the
        exploit beam should favor what looks good, and the explore walk
        is responsible for eventually seeing everything.
        """
        out: list[list[int]] = []
        for dev, counts in zip(self._axis_devs(), self.axis_cnt):
            ranked = np.lexsort((np.arange(len(dev)), -dev, counts == 0))
            out.append(ranked[: max(1, width)].tolist())
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
        _stratum_heads(scores, deadline_of, keep),
        keep,
        deadline=lambda entry: deadline_of[entry[0]],
        rank=lambda entry: (-entry[1], entry[0]),
    )
    return tuple(sorted(index for index, _ in chosen))


def _stratum_heads(
    scores: t.Mapping[int, float],
    deadline_of: t.Mapping[int, float],
    keep: int,
) -> list[tuple[int, float]]:
    """The ``keep`` best ``(index, score)`` entries of each deadline stratum.

    Best is promotion's own order, ``(-score, index)``. Promoting from
    these heads chooses what promoting from all of ``scores`` would: no
    stratum's budget exceeds ``keep``, so promotion never reads past a
    head, and :func:`~repro.explore.budget.allocate_budgets` caps a
    stratum at its size only while that size is below ``keep``.
    """
    count = len(scores)
    index = np.fromiter(scores, dtype=np.int64, count=count)
    score = np.fromiter(scores.values(), dtype=float, count=count)
    deadline = np.fromiter(
        map(deadline_of.__getitem__, scores), dtype=float, count=count
    )
    order = np.lexsort((index, -score))
    heads: list[tuple[int, float]] = []
    for value in np.unique(deadline):
        head = order[deadline[order] == value][:keep]
        heads.extend(zip(index[head].tolist(), score[head].tolist()))
    return heads


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


def _hamming1(
    indices: np.ndarray,
    rows: np.ndarray,
    radices: t.Sequence[int],
    places: t.Sequence[int],
) -> np.ndarray:
    """Every Hamming-1 variant's index: one axis moved to any other value.

    ``rows`` holds the digits of ``indices``; moving axis ``a`` from
    ``d`` to ``v`` is ``index + (v - d) * places[a]``, so no digit tuple
    is re-encoded.
    """
    out = [np.empty(0, dtype=np.int64)]
    for axis, (radix, place) in enumerate(zip(radices, places)):
        if radix < 2:
            continue
        values = np.arange(radix)
        digits = rows[:, axis, None]
        moved = indices[:, None] + (values - digits) * place
        out.append(moved[values != digits])
    return np.concatenate(out)


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
    check_limit(limit)
    radices = space.radices()
    places = space.place_values()
    full = space.size()
    if limit is not None and limit < full:
        universe = space.indices(limit)
        in_universe: t.Container[int] = set(universe)
    else:
        universe = None  # implicit range(full)
        in_universe = range(full)
    n = len(universe) if universe is not None else full
    report = GuidedReport(universe=n)
    model = Surrogate(space)
    scores: dict[int, float] = {}
    deadline_of: dict[int, float] = {}
    deadlines = space.axis_values("deadline_s")
    evaluated: set[int] = set()

    def universe_at(pos: int) -> int:
        return universe[pos] if universe is not None else pos

    def admissible(index: int) -> bool:
        return index not in evaluated and index in in_universe

    def neighbors(indices: t.Sequence[int]) -> list[int]:
        rows = space.digits_array(indices)
        moved = _hamming1(
            np.array(indices, dtype=np.int64), rows, radices, places
        )
        return list(filter(admissible, moved.tolist()))

    def run_batch(indices: list[int]) -> None:
        fresh = [i for i in indices if i not in evaluated]
        if not fresh:
            return
        report.proposals += len(fresh)
        found = evaluate(fresh)
        rows = space.digits_array(fresh)
        evaluated.update(fresh)
        for index, score, digit in zip(
            fresh, found, rows[:, _DEADLINE_AXIS].tolist()
        ):
            deadline_of[index] = deadlines[digit]
            if score is not None:
                scores[index] = score
        model.observe_rows(
            rows, [score if score is not None else 0.0 for score in found]
        )
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
    # Each anchor plus every value of every axis around it.
    anchors = [universe_at(0), universe_at(n // 2), universe_at(n - 1)]
    run_batch(sorted(set(first) | set(anchors) | set(neighbors(anchors))))

    # -- propose / score until the top set is stable and closed ---------
    prev_top: tuple[int, ...] | None = None
    stable = 0
    while True:
        report.rounds += 1
        top = _stall_set(scores, deadline_of, keep)
        closure = set(neighbors(top))
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

        proposals: set[int] = closure
        # exploit: beam over top axis values, ranked by prediction+bonus
        grids = np.meshgrid(*model.top_axis_values(_BEAM_WIDTH), indexing="ij")
        beam = np.stack([grid.ravel() for grid in grids], axis=1)
        combos = beam @ np.array(places)
        open_ = np.fromiter(
            map(admissible, combos.tolist()), dtype=bool, count=len(combos)
        )
        combos = combos[open_]
        gain = model.gain_rows(beam[open_])
        best = np.lexsort((combos, -gain))[: probe // 2]
        proposals.update(combos[best].tolist())
        # explore: the next slice of the permutation walk
        proposals.update(walk(probe // 2))
        batch = sorted(i for i in proposals if i not in evaluated)
        if not batch:
            report.stop_reason = "exhausted"
            break
        run_batch(batch)
    return scores, report
