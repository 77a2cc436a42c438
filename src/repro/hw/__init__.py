"""Hardware substrate: the simulated Itsy pocket computer.

Sub-modules model the pieces of the paper's testbed:

- :mod:`repro.hw.dvs` — the StrongARM SA-1100 frequency/voltage table
  (11 levels, 59–206.4 MHz) and DVS scaling laws.
- :mod:`repro.hw.power` — per-mode battery current curves (Fig. 7).
- :mod:`repro.hw.battery` — battery models: KiBaM (with rate-capacity
  and recovery effects), linear, and Peukert.
- :mod:`repro.hw.link` — the serial/PPP link with transaction startup.
- :mod:`repro.hw.host` — the host hub (PPP ports + IP forwarding).
- :mod:`repro.hw.node` — the node itself: CPU + battery + power-mode
  state machine with death events.
"""

from repro.hw.dvs import SA1100_TABLE, DVSTable, FrequencyLevel
from repro.hw.power import PowerMode, PowerModel
from repro.hw.battery import (
    PAPER_BATTERY,
    Battery,
    KiBaM,
    KiBaMParameters,
    LinearBattery,
    PeukertBattery,
    VoltageAwareBattery,
)
from repro.hw.link import SerialLink, TransactionTiming
from repro.hw.host import HostHub
from repro.hw.node import ItsyNode, NodeDead

__all__ = [
    "FrequencyLevel",
    "DVSTable",
    "SA1100_TABLE",
    "PowerMode",
    "PowerModel",
    "Battery",
    "KiBaM",
    "KiBaMParameters",
    "PAPER_BATTERY",
    "LinearBattery",
    "PeukertBattery",
    "VoltageAwareBattery",
    "SerialLink",
    "TransactionTiming",
    "HostHub",
    "ItsyNode",
    "NodeDead",
]
