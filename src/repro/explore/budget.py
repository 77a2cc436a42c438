"""The ladder's one promotion rule, and its adaptive budgets.

:func:`promote` is the only place candidates are grouped by deadline:
every rung promotion and the guided sampler's stall test call it.

The halving ladder's last budget (``keep[2]``) picks the configs the
frontier is drawn from, and the ones rung 3 may audit in exact mode at
seconds per config, while rung 1 costs milliseconds — so *where* that
budget lands matters more than its size. The fixed strategy (equal round-robin across
deadline strata) spends the same effort on a stratum whose cheap and
expensive fidelities already agree as on one where they rank survivors
in a different order.

This module treats the ladder like the feedback controllers in the
DVS literature it reproduces: the measured signal is per-stratum rank
disagreement between rung-1 (cohort battery walk) and rung-2 (fast
simulation) scores of the same survivors — a normalized Kendall-tau
distance in [0, 1] — and the actuator is the per-stratum share of the
last rung's budget. Strata where the fidelities disagree get more
places (their cheap scores are least trustworthy); strata in perfect
agreement fall back to their proportional share.

Everything is deterministic: apportionment is D'Hondt-style highest
averages with ties broken by stratum order, which with equal weights
degenerates to exactly the round-robin split the fixed strategy used
(single-stratum spaces are bit-for-bit unchanged).
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import ConfigurationError

__all__ = ["rank_disagreement", "allocate_budgets", "promote"]

T = t.TypeVar("T")

#: How strongly disagreement skews the apportionment weights: a stratum
#: at maximal disagreement (tau distance 1.0) weighs ``1 + _GAIN`` times
#: a stratum in perfect agreement.
_GAIN = 3.0


def rank_disagreement(
    pairs: t.Sequence[tuple[float, float, int]]
) -> float:
    """Normalized Kendall-tau distance between two scorings.

    ``pairs`` holds ``(score_a, score_b, tiebreak)`` per item — the same
    survivors scored by two fidelities, with the enumeration index as
    the deterministic tie-break both orderings share. Returns the
    fraction of item pairs the two orderings put in opposite relative
    order: 0.0 = identical rankings, 1.0 = exactly reversed. Fewer than
    two items cannot disagree.
    """
    n = len(pairs)
    if n < 2:
        return 0.0
    order_a = sorted(range(n), key=lambda i: (-pairs[i][0], pairs[i][2]))
    order_b = sorted(range(n), key=lambda i: (-pairs[i][1], pairs[i][2]))
    rank_a = [0] * n
    rank_b = [0] * n
    for rank, i in enumerate(order_a):
        rank_a[i] = rank
    for rank, i in enumerate(order_b):
        rank_b[i] = rank
    discordant = sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if (rank_a[i] - rank_a[j]) * (rank_b[i] - rank_b[j]) < 0
    )
    return discordant / (n * (n - 1) // 2)


def allocate_budgets(
    total: int,
    sizes: t.Sequence[int],
    disagreements: t.Sequence[float],
) -> list[int]:
    """Split ``total`` promotion slots across strata, skewed by distrust.

    ``sizes[i]`` is how many candidates stratum ``i`` has (a hard cap on
    its allocation); ``disagreements[i]`` is its rung-to-rung
    :func:`rank_disagreement`. Strata are assumed in their promotion
    order (ascending deadline) — that order breaks every tie.

    The split is highest-averages apportionment over weights
    ``1 + _GAIN * disagreement`` after a floor pass granting each
    non-empty stratum one slot (budget permitting) — no stratum's
    tradeoff region disappears just because its fidelities agree.
    Equal disagreements reproduce the plain round-robin split exactly.
    """
    if total < 0:
        raise ConfigurationError(f"total budget must be >= 0, got {total}")
    if len(sizes) != len(disagreements):
        raise ConfigurationError(
            f"sizes/disagreements lengths disagree: "
            f"{len(sizes)}, {len(disagreements)}"
        )
    m = len(sizes)
    alloc = [0] * m
    remaining = min(total, sum(max(0, s) for s in sizes))
    weights = [1.0 + _GAIN * max(0.0, min(1.0, d)) for d in disagreements]
    for i in range(m):
        if remaining <= 0:
            break
        if sizes[i] > 0:
            alloc[i] = 1
            remaining -= 1
    while remaining > 0:
        open_strata = [i for i in range(m) if alloc[i] < sizes[i]]
        if not open_strata:
            break
        best = max(
            open_strata, key=lambda i: (weights[i] / (alloc[i] + 1), -i)
        )
        alloc[best] += 1
        remaining -= 1
    return alloc


def promote(
    candidates: t.Iterable[T],
    keep: int,
    deadline: t.Callable[[T], float],
    rank: t.Callable[[T], t.Any],
    weight: t.Callable[[list[T]], float] | None = None,
    arrange: t.Callable[[list[T]], list[T]] | None = None,
) -> list[T]:
    """The top ``keep`` candidates, stratified across deadline values.

    The halving score is scalar (normalized lifetime), but the frame
    deadline moves *both* frontier objectives at once — shorter
    deadlines deliver more frames on less lifetime. Ranking the whole
    population on lifetime alone would promote only the longest
    deadline and erase that tradeoff before any simulation sees it.

    So candidates are grouped by ``deadline`` *value* (ascending), and
    :func:`allocate_budgets` splits ``keep`` across the strata, weighted
    by ``weight(stratum)`` (a rank disagreement; equal weights when
    None, which is the plain round-robin split). Each stratum yields the
    head of ``arrange(stratum)`` — by default the stratum sorted on
    ``rank`` — and the promoted set comes back sorted on ``rank``.
    ``rank`` must be a total order (it ends in the enumeration index),
    which keeps promotion independent of arrival order.
    """
    strata: dict[float, list[T]] = {}
    for cand in candidates:
        strata.setdefault(deadline(cand), []).append(cand)
    groups = [strata[d] for d in sorted(strata)]
    budgets = allocate_budgets(
        keep,
        [len(g) for g in groups],
        [weight(g) if weight is not None else 0.0 for g in groups],
    )
    promoted: list[T] = []
    for group, budget in zip(groups, budgets):
        if arrange is None:
            promoted.extend(heapq.nsmallest(budget, group, key=rank))
        else:
            promoted.extend(arrange(group)[:budget])
    promoted.sort(key=rank)
    return promoted
