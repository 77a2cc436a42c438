"""Cohort epoch loop: analytic jumps for the many, exact roots for the few.

:class:`CohortStepper` drives a :class:`~repro.batch.kibam.KiBaMCohort`
to death row by row, replaying — per row, in vector form — exactly the
jump/walk sequence of the scalar reference loop
(:func:`repro.hw.battery.kibam.lifetime_seconds`):

- **epoch jump**: every row far from death advances ``min(safe,
  remaining)`` whole duty cycles in one vectorized binary powering of
  its affine cycle map (the same safe-margin policy PR 5's fast-forward
  uses for its steady-state epochs);
- **death-mask walk**: rows whose safety margin is exhausted walk one
  cycle segment by segment, vectorized. Per row and segment, the cheap
  ``y1/I`` lower bound clears most segments; where it does not, the
  closed-form end value ``y1(dt)`` decides. Under a constant ``I > 0``,
  ``y1(t) = A e^{-k't} + B - I c t`` is convex and strictly decreasing,
  or concave with ``y1(0) > 0``, so it crosses zero at most once and
  ``y1(dt) > 0`` proves the row outlives the segment. Only an empty row
  or one whose end value is ``<= 0`` leaves vector land, for the exact
  scalar root solve (:meth:`KiBaM.time_to_death`, Brent's method) — one
  solve per death, not per near-death segment.

Because each row sees the same jump counts, the same closed-form
arithmetic (in the same expression order), the same sign test and the
same Brent solves from bitwise-equal state, the resulting death times
and cycle counts are **bit-identical** to the scalar path — asserted by
the equivalence tests in ``tests/batch/``.

Each epoch emits one coalesced ``batch.epoch`` telemetry event
(mirroring PR 5's ``ff.epoch``) so monitors can fold batched frames
into their coverage counts without per-frame events.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.errors import BatteryError
from repro.hw.battery.kibam import KiBaM
from repro.batch.kibam import KiBaMCohort
from repro.units import mas_to_mah

__all__ = ["CohortResult", "CohortStepper"]


@dataclasses.dataclass(frozen=True)
class CohortResult:
    """Outcome of one cohort run.

    Attributes
    ----------
    death_s:
        Per-row death time in seconds; ``inf`` where the cell was
        still alive at the horizon.
    cycles:
        Per-row count of *whole* duty cycles completed before death —
        the frame-count identity oracle against the scalar path.
    epochs:
        Epoch-loop iterations taken (vector passes).
    root_solves:
        How many exact scalar root solves ran (the only scalar work).
    delivered_mas:
        Per-row charge delivered, mA*s.
    """

    death_s: np.ndarray
    cycles: np.ndarray
    epochs: int
    root_solves: int
    delivered_mas: np.ndarray


class CohortStepper:
    """Advance a whole cohort to death (or the time horizon).

    Parameters
    ----------
    cohort:
        The structure-of-arrays cell batch; mutated in place.
    limit_s:
        Absolute time horizon (rows alive past it report ``inf``).
    obs:
        Optional :class:`repro.obs.Telemetry`; one ``batch.epoch``
        event per epoch plus ``batch.*`` counters.
    actor:
        Actor name stamped on emitted events.
    """

    def __init__(
        self,
        cohort: KiBaMCohort,
        limit_s: float,
        obs: t.Any = None,
        actor: str = "batch",
    ):
        if limit_s <= 0:
            raise BatteryError(f"time horizon must be positive: {limit_s}")
        self.cohort = cohort
        self.limit_s = float(limit_s)
        self.obs = obs
        self.actor = actor

    def run(self) -> CohortResult:
        cohort = self.cohort
        n = cohort.n
        limit = self.limit_s
        t_now = np.zeros(n)
        cycles = np.zeros(n, dtype=np.int64)
        death = np.full(n, np.inf)
        alive = np.ones(n, dtype=bool)
        epochs = 0
        root_solves = 0

        can_jump = cohort.drain > 0.0
        while True:
            rows = np.flatnonzero(alive)
            if rows.size == 0:
                break
            epochs += 1
            t0 = float(t_now[rows].min())
            drained_before = float(cohort.delivered_mas[rows].sum())

            # Mirror of the scalar jump policy: int() truncation equals
            # floor for these non-negative quantities, so the vector
            # int64 cast reproduces the scalar cycle counts exactly.
            drain = cohort.drain[rows]
            cyc_s = cohort.cycle_s[rows]
            can = can_jump[rows]
            safe = (
                np.where(can, cohort.y1[rows] / np.where(can, drain, 1.0), 0.0)
            ).astype(np.int64) - 2
            remaining = ((limit - t_now[rows]) / cyc_s).astype(np.int64) + 1
            jump = np.where(can, np.minimum(safe, remaining), 0)

            jmask = jump > 0
            jrows = rows[jmask]
            frames = 0
            if jrows.size:
                nj = jump[jmask]
                cohort.advance(jrows, nj)
                t_now[jrows] += nj * cyc_s[jmask]
                cycles[jrows] += nj
                frames += int(nj.sum())

            wrows = rows[~jmask]
            if wrows.size:
                solves, completed = self._walk_cycle(
                    wrows, t_now, cycles, death, alive
                )
                root_solves += solves
                frames += completed

            timed_out = rows[alive[rows] & (t_now[rows] >= limit)]
            if timed_out.size:
                alive[timed_out] = False

            if self.obs is not None:
                t1 = float(t_now[rows].max())
                drained_mah = mas_to_mah(
                    float(cohort.delivered_mas[rows].sum()) - drained_before
                )
                self.obs.emit(
                    "batch.epoch",
                    t1,
                    self.actor,
                    epoch=epochs,
                    alive=int(rows.size),
                    jumped=int(jrows.size),
                    walked=int(rows.size - jrows.size),
                    frames=frames,
                    t0=t0,
                    t1=t1,
                    drained_mah=drained_mah,
                    link_busy_s={},
                )

        if self.obs is not None:
            m = self.obs.metrics
            m.counter("batch.cells").inc(n)
            m.counter("batch.epochs").inc(epochs)
            m.counter("batch.frames").inc(int(cycles.sum()))
            m.counter("batch.root_solves").inc(root_solves)
        return CohortResult(
            death_s=death,
            cycles=cycles,
            epochs=epochs,
            root_solves=root_solves,
            delivered_mas=cohort.delivered_mas.copy(),
        )

    # -- the death-mask walk --------------------------------------------
    def _walk_cycle(
        self,
        wrows: np.ndarray,
        t_now: np.ndarray,
        cycles: np.ndarray,
        death: np.ndarray,
        alive: np.ndarray,
    ) -> tuple[int, int]:
        """Walk one duty cycle for rows too close to death to jump.

        Per segment, the same three tiers as the scalar
        ``lifetime_seconds`` walk: the cheap lower bound (``y1/I``,
        exactly the scalar ``time_to_death_lower_bound``) selects the
        rows that *might* die this segment; of those, the vectorized
        end value (:meth:`KiBaMCohort.preview`, bitwise the scalar
        ``preview``) clears every row with ``y1(dt) > 0`` — ``y1``
        crosses zero at most once per constant-current segment, so a
        positive end value proves survival. Only empty rows and rows
        ending at ``y1(dt) <= 0`` run the exact scalar root solve from
        injected state, dying at ``t + ttd`` if the root lands inside
        the segment. Everyone else takes the vectorized closed-form
        step (with the scalar death latch). Rows that finish the whole
        cycle alive count one completed frame period.

        Returns ``(root_solves, completed_cycles)``.
        """
        cohort = self.cohort
        eps = KiBaM.DEATH_EPS_MAS
        walking = np.ones(wrows.size, dtype=bool)
        solves = 0
        for s in range(cohort.max_segments):
            act_pos = np.flatnonzero(walking)
            if act_pos.size == 0:
                break
            act = wrows[act_pos]
            cur = cohort.cur[act, s]
            dt = cohort.dt[act, s]
            y1 = cohort.y1[act]
            # Padding slots do not exist on the scalar path; skip them
            # entirely (they would otherwise kill latched rows one
            # cycle early and desync the frame counts).
            notpad = ~cohort.pad[act, s]
            empty = cohort.latched[act] | (y1 <= eps)
            with np.errstate(divide="ignore"):
                lb = np.where(cur > 0.0, y1 / np.where(cur > 0.0, cur, 1.0), np.inf)
            solve = notpad & empty
            near = notpad & ~empty & (lb <= dt)
            if near.any():
                npos = np.flatnonzero(near)
                solve[npos] = cohort.preview(act[npos], s)[0] <= 0.0
            for j in np.flatnonzero(solve):
                i = int(act[j])
                if empty[j]:
                    ttd = 0.0
                else:
                    solves += 1
                    ttd = cohort.scalar_cell(i).time_to_death(float(cur[j]))
                if ttd <= float(dt[j]):
                    death[i] = t_now[i] + ttd
                    alive[i] = False
                    walking[act_pos[j]] = False
            survivors = wrows[walking]
            cohort.step_segment(survivors, s)
            t_now[survivors] += cohort.dt[survivors, s]
        completed = wrows[walking]
        cycles[completed] += 1
        return solves, int(completed.size)
