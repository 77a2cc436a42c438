"""Structure-of-arrays KiBaM cohort: one numpy row per cell.

A sweep point is a ``(KiBaMParameters, duty cycle)`` pair; a cohort
packs thousands of them into parallel float64 columns — ``y1``/``y2``
wells, per-segment currents and closed-form factors, composed affine
cycle maps — so one numpy pass advances every still-alive config at
once (see :class:`repro.batch.stepper.CohortStepper`).

Bit-identity with the scalar path
---------------------------------
The cohort reproduces :class:`repro.hw.battery.kibam.KiBaM` *bit for
bit*, not merely to float noise, because it evaluates the scalar
model's own closed-form functions (:func:`~repro.hw.battery.kibam.step_factors`,
:func:`~repro.hw.battery.kibam.step_state`,
:func:`~repro.hw.battery.kibam.segment_map`,
:func:`~repro.hw.battery.kibam.affine_mul`,
:func:`~repro.hw.battery.kibam.affine_apply`) on float64 columns.
Those use only ``+ - * /`` past the per-``(k', dt)`` factors, which
are computed once per distinct pair with the scalar function itself.
What is left here is lane logic: padding, row selection, and the
``np.where`` selects of the vector binary powering.

Ragged cycles are padded with zero-duration, zero-current segments
whose factors form the exact identity affine map, so padding composes
without perturbing a single bit; :attr:`KiBaMCohort.pad` records which
slots are padding so near-death walks can skip them.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.errors import BatteryError
from repro.hw.battery.kibam import (
    IDENTITY_MAP,
    KiBaM,
    KiBaMParameters,
    affine_apply,
    affine_mul,
    check_cycle,
    segment_map,
    step_factors,
    step_state,
)
from repro.units import mah_to_mas

__all__ = ["CohortCell", "KiBaMCohort"]


@dataclasses.dataclass(frozen=True)
class CohortCell:
    """One cohort row: a cell and the duty cycle it repeats."""

    params: KiBaMParameters
    cycle: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        check_cycle(self.cycle)


class KiBaMCohort:
    """A batch of independent KiBaM cells in structure-of-arrays layout.

    All state lives in ``(n,)`` or ``(n, max_segments)`` float64
    arrays; methods take explicit row-index arrays so the stepper can
    operate on the still-alive subset without repacking.

    Attributes (all read-only by convention)
    ----------------------------------------
    y1, y2:
        Available / bound charge per row, mA*s.
    delivered_mas:
        Charge delivered so far per row, mA*s.
    latched:
        Death latch per row (mirrors ``KiBaM._dead``).
    cur, dt:
        Per-(row, segment) current (mA) and duration (s), zero-padded.
    pad:
        True where a (row, segment) slot is ragged-cycle padding.
    drain, cycle_s:
        Per-row whole-cycle charge (mA*s) and duration (s).
    """

    def __init__(self, cells: t.Sequence[CohortCell]):
        if not cells:
            raise BatteryError("cohort needs at least one cell")
        self.cells = tuple(cells)
        n = len(self.cells)
        self.n = n
        smax = max(len(cell.cycle) for cell in self.cells)
        self.max_segments = smax

        kp = np.array(
            [cell.params.k_prime_per_second for cell in self.cells]
        )
        c = np.array([cell.params.c for cell in self.cells])
        total = np.array(
            [mah_to_mas(cell.params.capacity_mah) for cell in self.cells]
        )
        self.kp = kp
        self.c = c
        self.y1 = c * total
        self.y2 = (1.0 - c) * total
        self.delivered_mas = np.zeros(n)
        self.latched = np.zeros(n, dtype=bool)

        self.cur = np.zeros((n, smax))
        self.dt = np.zeros((n, smax))
        self.pad = np.ones((n, smax), dtype=bool)
        ex = np.ones((n, smax))
        om = np.zeros((n, smax))
        r = np.zeros((n, smax))
        memo: dict[tuple[float, float], tuple[float, float, float]] = {}
        for i, cell in enumerate(self.cells):
            kps = cell.params.k_prime_per_second
            for s, (current, dt_s) in enumerate(cell.cycle):
                self.cur[i, s] = current
                self.dt[i, s] = dt_s
                self.pad[i, s] = False
                factors = memo.get((kps, dt_s))
                if factors is None:
                    memo[kps, dt_s] = factors = step_factors(kps, dt_s)
                ex[i, s], om[i, s], r[i, s] = factors
        self.ex = ex
        self.om = om
        self.r = r

        # Compose each row's affine cycle map segment by segment, as
        # KiBaM.cycle_map does (padding slots compose the exact
        # identity, so ragged rows are unaffected).
        amap = tuple(np.full(n, v) for v in IDENTITY_MAP)
        drain = np.zeros(n)
        cycle_s = np.zeros(n)
        for s in range(smax):
            cur_s, dt_s = self.cur[:, s], self.dt[:, s]
            segment = segment_map(cur_s, kp, c, ex[:, s], om[:, s], r[:, s])
            amap = affine_mul(segment, amap)
            drain = drain + cur_s * dt_s
            cycle_s = cycle_s + dt_s
        self.a11, self.a12, self.a21, self.a22, self.b1, self.b2 = amap
        self.drain = drain
        self.cycle_s = cycle_s

    # -- vectorized fast paths ------------------------------------------
    def advance(self, rows: np.ndarray, n_cycles: np.ndarray) -> None:
        """``KiBaM.advance_cycles`` over ``rows``, with per-row counts.

        Vectorized binary powering of each row's affine cycle map, with
        the scalar loop's :func:`affine_mul` steps. Lanes whose exponent
        is exhausted keep computing and discard the result via
        ``np.where`` — cheaper than repacking, and the select keeps
        their state bit-stable.
        """
        if rows.size == 0:
            return
        n = np.asarray(n_cycles, dtype=np.int64)
        if (n <= 0).any():
            raise BatteryError("advance needs positive cycle counts")
        if (self.y1[rows] - n * self.drain[rows] <= KiBaM.DEATH_EPS_MAS).any():
            raise BatteryError(
                "advance may cross death; leave at least one cycle's margin"
            )
        amap = tuple(
            m[rows] for m in (self.a11, self.a12, self.a21, self.a22, self.b1, self.b2)
        )
        power = tuple(np.full(rows.size, v) for v in IDENTITY_MAP)
        k = n.copy()
        while (k > 0).any():
            odd = (k & 1) == 1
            power = _select(odd, affine_mul(power, amap), power)
            k >>= 1
            live = k > 0
            if not live.any():
                break
            amap = _select(live, affine_mul(amap, amap), amap)
        self.y1[rows], self.y2[rows] = affine_apply(power, self.y1[rows], self.y2[rows])
        self.delivered_mas[rows] += n * self.drain[rows]

    def preview(self, rows: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(y1, y2)`` state of ``rows`` after segment ``s``, unapplied.

        :func:`step_state` on the rows' columns, as the scalar
        ``KiBaM.preview`` evaluates it, so each row's values equal the
        scalar preview bit for bit; the stepper's end-of-segment death
        test reads ``y1`` from here.
        """
        return step_state(
            self.y1[rows],
            self.y2[rows],
            self.cur[rows, s],
            self.kp[rows],
            self.c[rows],
            self.ex[rows, s],
            self.om[rows, s],
            self.r[rows, s],
        )

    def step_segment(self, rows: np.ndarray, s: int) -> None:
        """One closed-form constant-current step of segment ``s``.

        :meth:`preview` applied, plus the death latch from
        ``KiBaM._advance``; callers must have ruled out mid-segment
        death first (via the lower bound, the end-of-segment sign test
        and, for an empty or dying row, the exact scalar root solve —
        see the stepper).
        """
        if rows.size == 0:
            return
        ny1, ny2 = self.preview(rows, s)
        if (ny1 < -1e-6).any():
            raise BatteryError(
                "available charge went negative; stepper failed to "
                "truncate at time_to_death()"
            )
        latch = ny1 <= KiBaM.DEATH_EPS_MAS
        self.y1[rows] = np.where(latch, np.maximum(ny1, 0.0), ny1)
        self.y2[rows] = ny2
        self.latched[rows] |= latch
        self.delivered_mas[rows] += self.cur[rows, s] * self.dt[rows, s]

    # -- scalar escape hatch --------------------------------------------
    def scalar_cell(self, i: int) -> KiBaM:
        """A scalar :class:`KiBaM` clone of row ``i``'s exact state.

        Used for the root solve on the one segment where a row dies:
        the stepper calls it only after the end-of-segment sign test
        (:meth:`preview` ``y1 <= 0``) has shown the available well
        empties within the segment, exactly when the scalar reference
        solves. ``time_to_death`` then runs the same bracket expansion
        and Brent iteration the scalar path runs, from bitwise-equal
        state, so the death instant is bitwise-equal too. State
        injection reaches into KiBaM's private fields deliberately: the
        clone must be the scalar cell at this row's exact state.
        """
        cell = KiBaM(self.cells[i].params)
        cell._y1 = float(self.y1[i])
        cell._y2 = float(self.y2[i])
        cell._dead = bool(self.latched[i])
        cell._delivered_mas = float(self.delivered_mas[i])
        return cell


def _select(mask: np.ndarray, new: tuple, old: tuple) -> tuple:
    """Each map entry from ``new`` where ``mask`` holds, else from ``old``."""
    return tuple(np.where(mask, a, b) for a, b in zip(new, old))
