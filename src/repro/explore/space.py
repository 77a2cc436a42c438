"""Declarative design spaces for multi-fidelity exploration.

The paper hand-picks four configurations for Fig. 10; the methodology
it implies — search the whole design space for the technique that
maximizes multi-battery lifetime — needs a way to *say* what the space
is. A :class:`SpaceSpec` is a set of named :class:`Axis` objects (grid,
log, or choice) over the knobs this reproduction models: DVS policy
family, partition cut, rotation period, link bandwidth, battery
chemistry and capacity, I/O activity, and the frame deadline. Axes the
spec omits stay pinned at their paper-calibrated values.

Enumeration is deterministic: configs come out in the cross-product
order of the fixed axis vocabulary (:data:`AXES`), each tagged with its
enumeration index, regardless of the order axes were declared in. That
index is the tie-breaker the successive-halving scheduler uses, which
is one of the three legs of the frontier's bit-identity across serial,
parallel, and cache-replayed runs (see :mod:`repro.explore.halving`).

An :class:`ExploreConfig` resolves to real objects on demand — policy
instance, :class:`~repro.hw.link.TransactionTiming`, power model,
battery factory, and a full :class:`~repro.core.experiments.ExperimentSpec`
— so every rung of the fidelity ladder consumes the same source of
truth.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import typing as t

import numpy as np

from repro.apps.atr.profile import PAPER_PROFILE, TaskProfile
from repro.core.policies import (
    BaselinePolicy,
    DVSDuringIOPolicy,
    DVSPolicy,
    SlowestFeasiblePolicy,
)
from repro.errors import ConfigurationError
from repro.hw.battery.base import Battery
from repro.hw.battery.kibam import KiBaM, KiBaMParameters, PAPER_KIBAM_PARAMETERS
from repro.hw.battery.linear import LinearBattery
from repro.hw.battery.peukert import PeukertBattery
from repro.hw.link import TransactionTiming
from repro.hw.power import PAPER_POWER_MODEL, PowerModel

__all__ = [
    "AXES",
    "POLICY_FAMILIES",
    "CHEMISTRIES",
    "Axis",
    "SpaceSpec",
    "ExploreConfig",
    "ConfigBattery",
    "check_limit",
    "default_space",
]

#: The fixed axis vocabulary, in enumeration order. A spec may declare
#: any subset; omitted axes pin to their paper-calibrated defaults.
AXES = (
    "policy",
    "cut",
    "rotation_period",
    "bandwidth_bps",
    "chemistry",
    "capacity_mah",
    "io_activity",
    "deadline_s",
)

#: DVS policy families the ``policy`` axis ranges over.
POLICY_FAMILIES = ("baseline", "slowest", "dvs_io")

#: Battery chemistries the ``chemistry`` axis ranges over.
CHEMISTRIES = ("kibam", "linear", "peukert")

_AXIS_POSITION = {name: pos for pos, name in enumerate(AXES)}

_DEFAULTS: dict[str, tuple] = {
    "policy": ("dvs_io",),
    "cut": ((1,),),
    "rotation_period": (None,),
    "bandwidth_bps": (80_000.0,),
    "chemistry": ("kibam",),
    "capacity_mah": (PAPER_KIBAM_PARAMETERS.capacity_mah,),
    "io_activity": (PAPER_POWER_MODEL.io_activity,),
    "deadline_s": (2.3,),
}


@dataclasses.dataclass(frozen=True)
class Axis:
    """One named dimension of a design space: a tuple of values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if self.name not in AXES:
            raise ConfigurationError(
                f"unknown axis {self.name!r}; valid axes: {', '.join(AXES)}"
            )
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} needs at least one value")

    @classmethod
    def grid(cls, name: str, lo: float, hi: float, n: int) -> "Axis":
        """``n`` evenly spaced values over ``[lo, hi]``."""
        if n < 1:
            raise ConfigurationError(f"axis {name!r}: grid needs n >= 1, got {n}")
        if hi < lo:
            raise ConfigurationError(f"axis {name!r}: hi {hi} < lo {lo}")
        if n == 1:
            return cls(name, (lo,))
        step = (hi - lo) / (n - 1)
        return cls(name, tuple(lo + step * i for i in range(n)))

    @classmethod
    def log(cls, name: str, lo: float, hi: float, n: int) -> "Axis":
        """``n`` geometrically spaced values over ``[lo, hi]``."""
        if n < 1:
            raise ConfigurationError(f"axis {name!r}: log needs n >= 1, got {n}")
        if lo <= 0 or hi < lo:
            raise ConfigurationError(
                f"axis {name!r}: log needs 0 < lo <= hi, got [{lo}, {hi}]"
            )
        if n == 1:
            return cls(name, (lo,))
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return cls(name, tuple(lo * ratio**i for i in range(n)))

    @classmethod
    def choice(cls, name: str, *values: t.Any) -> "Axis":
        """An explicit, ordered set of values."""
        return cls(name, tuple(values))


def check_limit(limit: int | None) -> None:
    """Refuse a subsample ``limit`` below one; ``None`` is the whole space."""
    if limit is not None and limit < 1:
        raise ConfigurationError(f"limit must be >= 1, got {limit}")


def _check_axis_values(name: str, values: tuple) -> None:
    """Domain validation per axis, so bad spaces fail at spec time."""
    if name == "policy":
        bad = [v for v in values if v not in POLICY_FAMILIES]
        if bad:
            raise ConfigurationError(
                f"policy axis: unknown families {bad}; "
                f"valid: {', '.join(POLICY_FAMILIES)}"
            )
    elif name == "chemistry":
        bad = [v for v in values if v not in CHEMISTRIES]
        if bad:
            raise ConfigurationError(
                f"chemistry axis: unknown chemistries {bad}; "
                f"valid: {', '.join(CHEMISTRIES)}"
            )
    elif name == "cut":
        for v in values:
            if not isinstance(v, tuple) or any(
                not isinstance(c, int) for c in v
            ):
                raise ConfigurationError(
                    f"cut axis values must be tuples of ints, got {v!r}"
                )
    elif name == "rotation_period":
        for v in values:
            if v is not None and (not isinstance(v, int) or v < 1):
                raise ConfigurationError(
                    f"rotation_period values must be None or int >= 1, got {v!r}"
                )
    else:  # numeric axes
        for v in values:
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                raise ConfigurationError(
                    f"{name} axis values must be positive finite numbers, got {v!r}"
                )
        if name == "io_activity" and any(v > 1.0 for v in values):
            raise ConfigurationError("io_activity values must lie in (0, 1]")


@dataclasses.dataclass(frozen=True)
class ExploreConfig:
    """One fully specified candidate configuration.

    ``index`` is the config's position in its space's deterministic
    enumeration — stable across processes and runs, and the promotion
    tie-breaker of the halving scheduler.
    """

    index: int
    policy: str
    cut: tuple[int, ...]
    rotation_period: int | None
    bandwidth_bps: float
    chemistry: str
    capacity_mah: float
    io_activity: float
    deadline_s: float

    @property
    def n_stages(self) -> int:
        """Pipeline depth implied by the cut."""
        return len(self.cut) + 1

    @property
    def label(self) -> str:
        """Short stable label used for registry records."""
        return f"x{self.index:06d}"

    def describe(self) -> str:
        """Human-readable one-liner for tables and spec descriptions."""
        rot = f" rot={self.rotation_period}" if self.rotation_period else ""
        return (
            f"{self.policy} cut={list(self.cut)}{rot} "
            f"bw={self.bandwidth_bps / 1000.0:g}kbps {self.chemistry} "
            f"{self.capacity_mah:.1f}mAh io={self.io_activity:.3f} "
            f"D={self.deadline_s:g}s"
        )

    # -- resolution ------------------------------------------------------
    def policy_object(self) -> DVSPolicy:
        """The policy family resolved to a concrete DVS policy."""
        if self.policy == "baseline":
            return BaselinePolicy()
        if self.policy == "slowest":
            return SlowestFeasiblePolicy()
        if self.policy == "dvs_io":
            return DVSDuringIOPolicy(SlowestFeasiblePolicy())
        raise ConfigurationError(f"unknown policy family {self.policy!r}")

    def timing(self) -> TransactionTiming:
        """Link timing at this config's bandwidth (paper startup cost)."""
        return TransactionTiming(bandwidth_bps=self.bandwidth_bps)

    def power_model(self) -> PowerModel:
        """The paper power model at this config's I/O activity."""
        return PAPER_POWER_MODEL.replace(io_activity=self.io_activity)

    def battery_factory(self) -> "ConfigBattery":
        """Picklable factory for this config's battery cells."""
        return ConfigBattery(self.chemistry, self.capacity_mah)

    def battery_parameters(self) -> KiBaMParameters:
        """KiBaM parameters at this capacity (kibam chemistry only)."""
        if self.chemistry != "kibam":
            raise ConfigurationError(
                f"battery_parameters needs kibam chemistry, not {self.chemistry!r}"
            )
        return dataclasses.replace(
            PAPER_KIBAM_PARAMETERS, capacity_mah=self.capacity_mah
        )

    def experiment_spec(self, profile: TaskProfile = PAPER_PROFILE):
        """The full-simulation spec for this configuration."""
        from repro.core.experiments import ExperimentSpec

        return ExperimentSpec(
            label=self.label,
            description=self.describe(),
            policy=self.policy_object(),
            cuts=self.cut,
            rotation_period=self.rotation_period,
            deadline_s=self.deadline_s,
            profile=profile,
        )


@dataclasses.dataclass(frozen=True)
class ConfigBattery:
    """Picklable battery factory for one chemistry/capacity pair.

    ``run_experiment`` takes a zero-argument callable per spawned cell;
    a frozen dataclass keeps that callable canonical-encodable (cache
    keys) and picklable (worker processes), unlike a lambda.
    """

    chemistry: str
    capacity_mah: float

    def __call__(self) -> Battery:
        if self.chemistry == "kibam":
            return KiBaM(
                dataclasses.replace(
                    PAPER_KIBAM_PARAMETERS, capacity_mah=self.capacity_mah
                )
            )
        if self.chemistry == "linear":
            return LinearBattery(self.capacity_mah)
        if self.chemistry == "peukert":
            return PeukertBattery(self.capacity_mah)
        raise ConfigurationError(f"unknown chemistry {self.chemistry!r}")


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """A declarative design space: axes plus shared run settings."""

    axes: tuple[Axis, ...]
    max_hours: float = 400.0
    profile: TaskProfile = PAPER_PROFILE

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for axis in self.axes:
            if axis.name in seen:
                raise ConfigurationError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
            _check_axis_values(axis.name, axis.values)
        if self.max_hours <= 0:
            raise ConfigurationError(
                f"max_hours must be positive, got {self.max_hours}"
            )
        n = len(self.profile.blocks)
        for cut in self.axis_values("cut"):
            # Partition validates too, but failing at spec time names
            # the axis instead of a mid-sweep config.
            if any(not 0 < c < n for c in cut) or any(
                b <= a for a, b in zip(cut, cut[1:])
            ):
                raise ConfigurationError(
                    f"cut {cut!r} invalid for a {n}-block profile"
                )

    @functools.cached_property
    def _values(self) -> tuple[tuple, ...]:
        # Per-axis value tuples in AXES order. Cached outside the
        # dataclass fields: cache keys and fingerprints encode fields
        # only, so nothing derived here can move them.
        declared = {axis.name: axis.values for axis in self.axes}
        return tuple(declared.get(name, _DEFAULTS[name]) for name in AXES)

    @functools.cached_property
    def _radices(self) -> tuple[int, ...]:
        return tuple(len(values) for values in self._values)

    @functools.cached_property
    def _places(self) -> tuple[int, ...]:
        places = [1] * len(AXES)
        for pos in range(len(AXES) - 2, -1, -1):
            places[pos] = places[pos + 1] * self._radices[pos + 1]
        return tuple(places)

    @functools.cached_property
    def _size(self) -> int:
        return self._places[0] * self._radices[0]

    def axis_values(self, name: str) -> tuple:
        """The declared values for one axis, or its pinned default."""
        pos = _AXIS_POSITION.get(name)
        if pos is None:
            raise ConfigurationError(f"unknown axis {name!r}")
        return self._values[pos]

    def size(self) -> int:
        """Number of configs the full cross product enumerates."""
        return self._size

    def radices(self) -> tuple[int, ...]:
        """Axis cardinalities in :data:`AXES` order (the mixed radix)."""
        return self._radices

    def place_values(self) -> tuple[int, ...]:
        """Each axis's place value: ``index == sum(digit * place)``.

        Moving axis ``a`` from digit ``d`` to ``v`` moves the index by
        ``(v - d) * place[a]`` — how the guided sampler reaches
        neighbours without re-encoding digit tuples.
        """
        return self._places

    def _check_range(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise ConfigurationError(
                f"config index {index} outside space of {self._size} configs"
            )

    def digits_at(self, index: int) -> tuple[int, ...]:
        """Per-axis value indices for one enumeration index, O(1).

        The enumeration is ``itertools.product`` over :data:`AXES`, i.e.
        a mixed-radix number with the last axis as the least-significant
        digit; decoding is plain ``divmod`` — no materialization.
        """
        self._check_range(index)
        return tuple(
            index // place % radix
            for place, radix in zip(self._places, self._radices)
        )

    def digits_array(self, indices: t.Sequence[int]) -> np.ndarray:
        """:meth:`digits_at` over many indices: an ``(n, len(AXES))`` array.

        Row ``k`` equals ``digits_at(indices[k])``; one vectorized
        ``divmod`` per axis instead of one Python decode per index.
        """
        flat = np.asarray(indices, dtype=np.int64).reshape(-1)
        if flat.size:
            for bound in (int(flat.min()), int(flat.max())):
                self._check_range(bound)
        return flat[:, None] // np.array(self._places) % np.array(self._radices)

    def _config(self, index: int, digits: t.Iterable[int]) -> ExploreConfig:
        return ExploreConfig(index, *map(operator.getitem, self._values, digits))

    def config_at(self, index: int) -> ExploreConfig:
        """The config at one enumeration index, without enumerating.

        ``space.config_at(i)`` equals ``space.configs()[i]`` for every
        valid ``i`` (tests pin this) — it is how ``--resume`` touches
        10^6+ spaces one config at a time.
        """
        return self._config(index, self.digits_at(index))

    def configs_at(self, indices: t.Sequence[int]) -> list[ExploreConfig]:
        """``[config_at(i) for i in indices]``, decoded in one array pass."""
        rows = self.digits_array(indices).tolist()
        return [self._config(i, row) for i, row in zip(indices, rows)]

    def indices(self, limit: int | None = None) -> list[int]:
        """The enumeration indices :meth:`configs` would return.

        With no ``limit`` this is the full range; with one, the same
        evenly strided subsample — computed arithmetically, so callers
        can reason about a capped huge space without building it.
        """
        check_limit(limit)
        n = self.size()
        if limit is not None and limit < n:
            return sorted(
                {round(i * (n - 1) / (limit - 1)) for i in range(limit)}
                if limit > 1
                else {0}
            )
        return list(range(n))

    def configs(self, limit: int | None = None) -> list[ExploreConfig]:
        """Enumerate the space in deterministic cross-product order.

        ``limit`` subsamples deterministically (evenly strided over the
        enumeration, keeping each config's original index), so a capped
        exploration of a huge space is still reproducible.
        """
        check_limit(limit)
        configs = [
            ExploreConfig(index, *combo)
            for index, combo in enumerate(itertools.product(*self._values))
        ]
        if limit is not None and limit < len(configs):
            configs = [configs[i] for i in self.indices(limit)]
        return configs


def default_space(
    bandwidth_points: int = 10,
    capacity_points: int = 12,
    io_points: int = 12,
    chemistries: t.Sequence[str] = ("kibam",),
    rotation_periods: t.Sequence[int | None] = (None, 25, 50, 100, 200, 400),
    deadlines: t.Sequence[float] = (2.3,),
    max_hours: float = 400.0,
) -> SpaceSpec:
    """The CLI's stock space: ~100k configs around the paper's design.

    3 policies x 4 cuts x 6 rotation settings x ``bandwidth_points``
    bandwidths (log-spaced over half-to-double the paper's 80 kbps) x
    ``capacity_points`` capacities (quarter to full scale) x
    ``io_points`` I/O activity levels — 103,680 configs at the
    defaults. Chemistry stays KiBaM by default (the calibrated model);
    pass more chemistries to cross the ablation batteries in. With the
    single paper deadline, lifetime and frames align and the frontier
    tends to collapse to one point; pass several ``deadlines`` to
    surface the throughput-versus-lifetime tradeoff.
    """
    cap = PAPER_KIBAM_PARAMETERS.capacity_mah
    axes = (
        Axis.choice("policy", *POLICY_FAMILIES),
        Axis.choice("cut", (), (1,), (2,), (3,)),
        Axis.choice("rotation_period", *rotation_periods),
        Axis.log("bandwidth_bps", 40_000.0, 160_000.0, bandwidth_points),
        Axis.choice("chemistry", *chemistries),
        Axis.grid("capacity_mah", cap / 4.0, cap, capacity_points),
        Axis.grid("io_activity", 0.05, 0.60, io_points),
        Axis.choice("deadline_s", *deadlines),
    )
    return SpaceSpec(axes=axes, max_hours=max_hours)
