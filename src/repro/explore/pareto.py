"""Pareto-frontier extraction over explore objectives.

The exploration's output is multi-objective — the paper's normalized
lifetime competes with delivered frames and deadline misses — so the
answer is a frontier, not a single winner. Domination here is the
standard strict Pareto order after sense normalization: ``a`` dominates
``b`` iff ``a`` is at least as good on every objective and strictly
better on at least one. Equal points do not dominate each other, so
duplicate configurations both survive (and tests pin that).

Everything is plain deterministic Python over small survivor sets —
by the time a frontier is computed, successive halving has already
reduced 100k+ configs to a handful of simulated survivors — so an
O(n^2) sweep is the simplest correct choice.
"""

from __future__ import annotations

import typing as t

from repro.errors import ConfigurationError

__all__ = ["OBJECTIVES", "dominates", "pareto_indices", "pareto_layers"]

#: The explore objectives, in point order: maximize lifetime, maximize
#: delivered frames, minimize deadline misses.
OBJECTIVES: tuple[tuple[str, str], ...] = (
    ("lifetime_hours", "max"),
    ("frames", "max"),
    ("deadline_misses", "min"),
)

_SENSES = ("max", "min")


def _normalize(
    point: t.Sequence[float], senses: t.Sequence[str]
) -> tuple[float, ...]:
    """Flip min-objectives so "greater is better" holds uniformly."""
    return tuple(
        v if sense == "max" else -v for v, sense in zip(point, senses)
    )


def dominates(
    a: t.Sequence[float],
    b: t.Sequence[float],
    senses: t.Sequence[str] | None = None,
) -> bool:
    """True iff ``a`` strictly Pareto-dominates ``b``.

    ``senses`` is one of ``"max"``/``"min"`` per objective (default:
    the :data:`OBJECTIVES` senses). Equal points dominate neither way.
    """
    if senses is None:
        senses = [sense for _, sense in OBJECTIVES]
    if len(a) != len(b) or len(a) != len(senses):
        raise ConfigurationError(
            f"point/sense lengths disagree: {len(a)}, {len(b)}, {len(senses)}"
        )
    bad = [s for s in senses if s not in _SENSES]
    if bad:
        raise ConfigurationError(f"unknown objective senses: {bad}")
    na, nb = _normalize(a, senses), _normalize(b, senses)
    return all(x >= y for x, y in zip(na, nb)) and any(
        x > y for x, y in zip(na, nb)
    )


def pareto_indices(
    points: t.Sequence[t.Sequence[float]],
    senses: t.Sequence[str] | None = None,
) -> list[int]:
    """Indices of the non-dominated points, in input order.

    Duplicates of a frontier point are all kept (none strictly
    dominates an equal point); an empty input yields an empty frontier.
    """
    if senses is None:
        senses = [sense for _, sense in OBJECTIVES]
    out: list[int] = []
    for i, candidate in enumerate(points):
        if not any(
            dominates(other, candidate, senses)
            for j, other in enumerate(points)
            if j != i
        ):
            out.append(i)
    return out


def pareto_layers(
    points: t.Sequence[t.Sequence[float]],
    senses: t.Sequence[str] | None = None,
) -> list[list[int]]:
    """Non-dominated sorting: successive Pareto fronts of ``points``.

    Layer 0 is :func:`pareto_indices`; layer ``k`` is the frontier of
    what remains after peeling layers ``0..k-1``. Every index appears in
    exactly one layer, in input order within its layer — which makes
    the output a deterministic promotion order for frontier-aware
    halving: walk layers outward, break ties inside a layer however the
    caller likes. Strict domination is acyclic, so the peeling always
    terminates with every point placed.
    """
    if senses is None:
        senses = [sense for _, sense in OBJECTIVES]
    remaining = list(range(len(points)))
    layers: list[list[int]] = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(
                dominates(points[j], points[i], senses)
                for j in remaining
                if j != i
            )
        ]
        layers.append(front)
        peeled = set(front)
        remaining = [i for i in remaining if i not in peeled]
    return layers
