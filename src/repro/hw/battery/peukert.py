"""Peukert-law battery: rate-capacity effect without recovery.

Peukert's empirical law says a cell rated ``C`` at reference current
``I_ref`` sustains current ``I`` for ``t = (C / I_ref) * (I_ref / I)^p``
with exponent ``p > 1``. Equivalently, drawing ``I`` consumes
*effective* charge at rate ``I * (I / I_ref)^(p - 1)``.

This model penalizes high currents like KiBaM does, but resting never
recovers anything — so it separates, in the ablation benches, how much
of the paper's story is rate-capacity and how much is recovery.
"""

from __future__ import annotations

from repro.errors import BatteryError
from repro.hw.battery.base import Battery
from repro.units import mah_to_mas

__all__ = [
    "PEUKERT_EXPONENT",
    "PEUKERT_REFERENCE_MA",
    "PeukertBattery",
    "peukert_rate",
]

#: Default reference current (mA) and exponent: the values the explore
#: space's Peukert chemistry runs and its analytic rungs score.
PEUKERT_REFERENCE_MA = 60.0
PEUKERT_EXPONENT = 1.2


def peukert_rate(
    current_ma: float,
    reference_ma: float = PEUKERT_REFERENCE_MA,
    exponent: float = PEUKERT_EXPONENT,
) -> float:
    """Effective charge-consumption rate (mA) for a real current."""
    if current_ma == 0.0:
        return 0.0
    return current_ma * (current_ma / reference_ma) ** (exponent - 1.0)


class PeukertBattery(Battery):
    """Battery obeying Peukert's law.

    Parameters
    ----------
    capacity_mah:
        Rated capacity at the reference current.
    reference_ma:
        Discharge current at which the rated capacity is delivered.
    exponent:
        Peukert exponent ``p``; 1.0 degenerates to a linear battery,
        typical Li-ion values are 1.05-1.3.
    """

    def __init__(
        self,
        capacity_mah: float,
        reference_ma: float = PEUKERT_REFERENCE_MA,
        exponent: float = PEUKERT_EXPONENT,
    ):
        super().__init__(capacity_mah)
        if reference_ma <= 0:
            raise BatteryError(f"reference current must be positive: {reference_ma}")
        if exponent < 1.0:
            raise BatteryError(f"Peukert exponent must be >= 1: {exponent}")
        self.reference_ma = float(reference_ma)
        self.exponent = float(exponent)
        self._remaining_effective_mas = mah_to_mas(capacity_mah)

    def effective_rate(self, current_ma: float) -> float:
        """Effective charge-consumption rate for a real current, mA."""
        return peukert_rate(current_ma, self.reference_ma, self.exponent)

    def charge_fraction(self) -> float:
        return max(0.0, self._remaining_effective_mas / mah_to_mas(self.capacity_mah))

    def _advance(self, current_ma: float, dt_s: float) -> None:
        self._remaining_effective_mas -= self.effective_rate(current_ma) * dt_s
        if self._remaining_effective_mas < 0.0:
            if self._remaining_effective_mas < -1e-6:
                raise BatteryError("Peukert battery over-drawn; truncate at time_to_death()")
            self._remaining_effective_mas = 0.0

    def preview(self, current_ma: float, dt_s: float) -> float:
        """Remaining effective charge after a constant-current step,
        without mutating the cell (no death clamp — may go negative)."""
        if current_ma < 0 or dt_s < 0:
            raise BatteryError("preview needs non-negative current and duration")
        return self._remaining_effective_mas - self.effective_rate(current_ma) * dt_s

    def time_to_death(self, current_ma: float) -> float:
        if current_ma < 0:
            raise BatteryError(f"negative current {current_ma} mA")
        if self._remaining_effective_mas <= 0.0:
            return 0.0
        if current_ma == 0.0:
            return float("inf")
        return self._remaining_effective_mas / self.effective_rate(current_ma)

    def reset(self) -> None:
        self._remaining_effective_mas = mah_to_mas(self.capacity_mah)
        self._reset_delivery()
