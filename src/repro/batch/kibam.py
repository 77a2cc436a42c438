"""Structure-of-arrays KiBaM cohort: one numpy row per cell.

A sweep point is a ``(KiBaMParameters, duty cycle)`` pair; a cohort
packs thousands of them into parallel float64 columns — ``y1``/``y2``
wells, per-segment currents and closed-form factors, composed affine
cycle maps — so one numpy pass advances every still-alive config at
once (see :class:`repro.batch.stepper.CohortStepper`).

Bit-identity with the scalar path
---------------------------------
The cohort reproduces :class:`repro.hw.battery.kibam.KiBaM` *bit for
bit*, not merely to float noise. Three details make that work:

- **``math.exp`` at setup.** numpy's SIMD ``exp`` differs from libm's
  ``math.exp`` by an ULP on a few percent of inputs, so every
  ``(e^-x, 1-e^-x, r)`` factor is computed elementwise with
  ``math.exp`` (memoized per ``(k', dt)`` — sweeps share segment
  durations, so the memo collapses the cost). All *hot-loop*
  arithmetic is float64 ``+ - * /``, where numpy and Python floats are
  IEEE-identical.
- **Same expression order.** Every formula below is transcribed from
  ``KiBaM._step`` / ``cycle_map`` / ``advance_cycles`` with the same
  association order, including the scalar tuple-assignment semantics
  (the affine-offset update reads the *old* result matrix).
- **Same accumulation order.** ``drain`` and ``cycle_s`` accumulate
  segment by segment, matching the scalar generator sums.

Ragged cycles are padded with zero-duration, zero-current segments
whose factors form the exact identity affine map, so padding composes
without perturbing a single bit; :attr:`KiBaMCohort.pad` records which
slots are padding so near-death walks can skip them.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

import numpy as np

from repro.errors import BatteryError
from repro.hw.battery.kibam import KiBaM, KiBaMParameters
from repro.units import mah_to_mas

__all__ = ["CohortCell", "KiBaMCohort"]


@dataclasses.dataclass(frozen=True)
class CohortCell:
    """One cohort row: a cell and the duty cycle it repeats."""

    params: KiBaMParameters
    cycle: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise BatteryError("cohort cell needs a non-empty duty cycle")
        for current, dt in self.cycle:
            if current < 0 or dt < 0:
                raise BatteryError(
                    "cycle needs non-negative currents and durations"
                )
        if sum(dt for _, dt in self.cycle) <= 0.0:
            raise BatteryError("duty cycle needs a positive total duration")


def _factors(
    kp_s: float, dt_s: float, memo: dict[tuple[float, float], tuple[float, float, float]]
) -> tuple[float, float, float]:
    """``(e^-x, 1-e^-x, r)`` exactly as ``KiBaM._dt_factors`` computes them."""
    key = (kp_s, dt_s)
    got = memo.get(key)
    if got is not None:
        return got
    x = kp_s * dt_s
    ex = math.exp(-x)
    if x < 1e-6:
        r = (x * x / 2.0 - x * x * x / 6.0) / kp_s
        om = x - x * x / 2.0 + x * x * x / 6.0
    else:
        r = (x - 1.0 + ex) / kp_s
        om = 1.0 - ex
    memo[key] = factors = (ex, om, r)
    return factors


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
                ex[i, s], om[i, s], r[i, s] = _factors(kps, dt_s, memo)
        self.ex = ex
        self.om = om
        self.r = r

        # Compose the per-row affine cycle map segment by segment,
        # mirroring KiBaM.cycle_map (padding slots compose the exact
        # identity, so ragged rows are unaffected).
        a11 = np.ones(n)
        a12 = np.zeros(n)
        a21 = np.zeros(n)
        a22 = np.ones(n)
        b1 = np.zeros(n)
        b2 = np.zeros(n)
        drain = np.zeros(n)
        cycle_s = np.zeros(n)
        for s in range(smax):
            exs, oms, rs = ex[:, s], om[:, s], r[:, s]
            cur_s, dt_s = self.cur[:, s], self.dt[:, s]
            m11 = exs + c * oms
            m12 = c * oms
            m21 = (1.0 - c) * oms
            m22 = exs + (1.0 - c) * oms
            s1 = -cur_s * (oms / kp + c * rs)
            s2 = -cur_s * (1.0 - c) * rs
            a11, a12, a21, a22, b1, b2 = (
                m11 * a11 + m12 * a21,
                m11 * a12 + m12 * a22,
                m21 * a11 + m22 * a21,
                m21 * a12 + m22 * a22,
                m11 * b1 + m12 * b2 + s1,
                m21 * b1 + m22 * b2 + s2,
            )
            drain = drain + cur_s * dt_s
            cycle_s = cycle_s + dt_s
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22
        self.b1, self.b2 = b1, b2
        self.drain = drain
        self.cycle_s = cycle_s

    # -- vectorized fast paths ------------------------------------------
    def advance(self, rows: np.ndarray, n_cycles: np.ndarray) -> None:
        """``KiBaM.advance_cycles`` over ``rows``, with per-row counts.

        Vectorized binary powering of each row's affine cycle map.
        Lanes whose exponent is exhausted keep computing and discard
        the result via ``np.where`` — cheaper than repacking, and the
        select keeps their state bit-stable. The update expressions use
        the *old* matrix values exactly like the scalar tuple
        assignment, which the bit-identity tests depend on.
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
        A11 = self.a11[rows].copy()
        A12 = self.a12[rows].copy()
        A21 = self.a21[rows].copy()
        A22 = self.a22[rows].copy()
        B1 = self.b1[rows].copy()
        B2 = self.b2[rows].copy()
        m = rows.size
        R11 = np.ones(m)
        R12 = np.zeros(m)
        R21 = np.zeros(m)
        R22 = np.ones(m)
        C1 = np.zeros(m)
        C2 = np.zeros(m)
        k = n.copy()
        while (k > 0).any():
            odd = (k & 1) == 1
            nR11 = R11 * A11 + R12 * A21
            nR12 = R11 * A12 + R12 * A22
            nR21 = R21 * A11 + R22 * A21
            nR22 = R21 * A12 + R22 * A22
            nC1 = R11 * B1 + R12 * B2 + C1
            nC2 = R21 * B1 + R22 * B2 + C2
            R11 = np.where(odd, nR11, R11)
            R12 = np.where(odd, nR12, R12)
            R21 = np.where(odd, nR21, R21)
            R22 = np.where(odd, nR22, R22)
            C1 = np.where(odd, nC1, C1)
            C2 = np.where(odd, nC2, C2)
            k >>= 1
            live = k > 0
            if not live.any():
                break
            sA11 = A11 * A11 + A12 * A21
            sA12 = A11 * A12 + A12 * A22
            sA21 = A21 * A11 + A22 * A21
            sA22 = A21 * A12 + A22 * A22
            sB1 = A11 * B1 + A12 * B2 + B1
            sB2 = A21 * B1 + A22 * B2 + B2
            A11 = np.where(live, sA11, A11)
            A12 = np.where(live, sA12, A12)
            A21 = np.where(live, sA21, A21)
            A22 = np.where(live, sA22, A22)
            B1 = np.where(live, sB1, B1)
            B2 = np.where(live, sB2, B2)
        y1 = self.y1[rows]
        y2 = self.y2[rows]
        self.y1[rows] = R11 * y1 + R12 * y2 + C1
        self.y2[rows] = R21 * y1 + R22 * y2 + C2
        self.delivered_mas[rows] += n * self.drain[rows]

    def preview(self, rows: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(y1, y2)`` state of ``rows`` after segment ``s``, unapplied.

        The exact vector transcription of ``KiBaM._step`` (the scalar
        ``KiBaM.preview``), so each row's values equal the scalar
        preview bit for bit; the stepper's end-of-segment death test
        reads ``y1`` from here.
        """
        kp = self.kp[rows]
        c = self.c[rows]
        y1 = self.y1[rows]
        y2 = self.y2[rows]
        current = self.cur[rows, s]
        ex = self.ex[rows, s]
        om = self.om[rows, s]
        r = self.r[rows, s]
        y0 = y1 + y2
        ny1 = y1 * ex + (y0 * kp * c - current) * om / kp - current * c * r
        ny2 = y2 * ex + y0 * (1.0 - c) * om - current * (1.0 - c) * r
        return ny1, ny2

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
        state, so the death instant is bitwise-equal too. (State
        injection reaches into KiBaM's private fields deliberately — the
        cohort is the model's batch twin, maintained alongside it.)
        """
        cell = KiBaM(self.cells[i].params)
        cell._y1 = float(self.y1[i])
        cell._y2 = float(self.y2[i])
        cell._dead = bool(self.latched[i])
        cell._delivered_mas = float(self.delivered_mas[i])
        return cell
