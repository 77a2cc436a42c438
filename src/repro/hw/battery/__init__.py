"""Battery models.

The paper's central surprise — aggregate energy savings do not
translate into battery lifetime — rests on two nonlinear battery
phenomena, both visible in its measurements:

- the **rate-capacity effect**: high discharge currents exhaust the
  cell before its nominal capacity is delivered (experiments 0A vs 0B);
- the **recovery effect**: resting (or lightly loading) the cell lets
  bound charge diffuse back and recovers capacity (invoked explicitly
  in §6.3 to explain F(1A) > F(0A)).

:class:`KiBaM` — the Kinetic Battery Model — exhibits both and admits a
closed-form solution for piecewise-constant loads, so discharge runs
spanning simulated days cost microseconds. :class:`LinearBattery`
(ideal charge bucket) and :class:`PeukertBattery` (rate-capacity only,
no recovery) serve as ablation baselines.
"""

from repro.hw.battery.base import Battery
from repro.hw.battery.kibam import KiBaM, KiBaMParameters, PAPER_BATTERY
from repro.hw.battery.linear import LinearBattery
from repro.hw.battery.peukert import PeukertBattery
from repro.hw.battery.voltage import LIION_OCV, OcvCurve, VoltageAwareBattery

__all__ = [
    "Battery",
    "KiBaM",
    "KiBaMParameters",
    "PAPER_BATTERY",
    "LinearBattery",
    "PeukertBattery",
    "VoltageAwareBattery",
    "OcvCurve",
    "LIION_OCV",
]
