"""Multi-fidelity design-space exploration.

The paper reports a handful of hand-picked configurations; this package
asks the inverse question — *which* corner of the (policy × partition ×
rotation × link × battery × workload) space is worth running at all?

- :mod:`repro.explore.space` declares the space: :class:`Axis` values
  over the paper's knobs, combined by :class:`SpaceSpec` into a
  deterministic enumeration of :class:`ExploreConfig` candidates.
- :mod:`repro.explore.halving` resolves it: successive halving over a
  four-rung fidelity ladder (analytic prescreen → exact battery cohort
  → fast simulation → sampled exact-mode audit), so 100k+ configs
  reduce to a frontier in seconds with ≥90% never touching a simulator.
- :mod:`repro.explore.pareto` keeps what matters: the non-dominated
  set over (lifetime, frames, deadline misses).
"""

from repro.explore.halving import (
    RUNGS,
    ExploreResult,
    FrontierMember,
    RungReport,
    explore,
)
from repro.explore.pareto import OBJECTIVES, dominates, pareto_indices
from repro.explore.space import (
    AXES,
    CHEMISTRIES,
    POLICY_FAMILIES,
    Axis,
    ConfigBattery,
    ExploreConfig,
    SpaceSpec,
    default_space,
)

__all__ = [
    "AXES",
    "CHEMISTRIES",
    "OBJECTIVES",
    "POLICY_FAMILIES",
    "RUNGS",
    "Axis",
    "ConfigBattery",
    "ExploreConfig",
    "ExploreResult",
    "FrontierMember",
    "RungReport",
    "SpaceSpec",
    "default_space",
    "dominates",
    "explore",
    "pareto_indices",
]
