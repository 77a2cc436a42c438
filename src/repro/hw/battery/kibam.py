"""The Kinetic Battery Model (KiBaM).

KiBaM (Manwell & McGowan, 1993) pictures the cell as two connected
wells of charge:

- the **available well** ``y1`` (a fraction ``c`` of total capacity)
  feeds the load directly;
- the **bound well** ``y2`` (fraction ``1 - c``) replenishes the
  available well through a valve with rate constant ``k'``.

The cell is *dead* when the available well empties, even if bound
charge remains — that is the rate-capacity effect. When the load drops,
bound charge keeps flowing into the available well — that is the
recovery effect. Jongerden & Haverkort ("Which battery model to use?",
IET Software 2009) found KiBaM the best-suited analytical model for
exactly the kind of duty-cycled embedded loads this paper measures.

For a constant current ``I`` over an interval of length ``t`` the ODEs
have the closed form (``k'`` below, ``y0 = y1_0 + y2_0``)::

    y1(t) = y1_0*e^{-k't} + (y0*k'*c - I)(1 - e^{-k't})/k'
            - I*c*(k't - 1 + e^{-k't})/k'
    y2(t) = y2_0*e^{-k't} + y0*(1-c)(1 - e^{-k't})
            - I*(1-c)*(k't - 1 + e^{-k't})/k'

which conserves charge exactly: ``y1(t) + y2(t) = y0 - I*t``.

Each closed-form operation is written once, as a module-level function
below (:func:`step_factors`, :func:`step_state`, :func:`segment_map`,
:func:`affine_mul`, :func:`affine_apply`). :class:`KiBaM` and the
vectorized :class:`repro.batch.kibam.KiBaMCohort` both call them. Past
the ``exp`` in :func:`step_factors` they use only float ``+ - * /``,
which numpy float64 arrays evaluate bit for bit like Python floats, so
a cohort row lands on the scalar cell's state by construction.

The paper-calibrated parameters (see :mod:`repro.core.calibration` and
DESIGN.md) are exposed as :data:`PAPER_BATTERY`.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from scipy.optimize import brentq

from repro.errors import BatteryError
from repro.hw.battery.base import Battery
from repro.units import SECONDS_PER_HOUR, mah_to_mas

__all__ = [
    "KiBaMParameters", "KiBaM", "PAPER_BATTERY", "lifetime_seconds",
    "IDENTITY_MAP", "step_factors", "step_state", "segment_map",
    "affine_mul", "affine_apply", "check_cycle",
]

#: An affine map ``state' = A state + b`` of the ``(y1, y2)`` state,
#: laid out ``(a11, a12, a21, a22, b1, b2)``. Entries are floats, or
#: float64 arrays holding one map per cohort row.
AffineMap = tuple[t.Any, t.Any, t.Any, t.Any, t.Any, t.Any]

IDENTITY_MAP: AffineMap = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def check_cycle(cycle: t.Sequence[tuple[float, float]]) -> float:
    """A duty cycle's total duration, once it is known to be repeatable.

    Raises :class:`BatteryError` for a negative current or duration, or
    for a total duration that is not positive (an empty cycle included).
    """
    for current_ma, dt_s in cycle:
        if current_ma < 0 or dt_s < 0:
            raise BatteryError("cycle needs non-negative currents and durations")
    cycle_s = sum(dt for _, dt in cycle)
    if cycle_s <= 0.0:
        raise BatteryError("duty cycle needs a positive total duration")
    return cycle_s


def step_factors(kp: float, dt_s: float) -> tuple[float, float, float]:
    """The duration factors ``(e^-x, 1 - e^-x, r)`` of one step, ``x = k' dt``.

    ``r = (x - 1 + e^-x) / k'``. Below ``x = 1e-6`` both ``1 - e^-x``
    and ``r`` come from their series (``x - x^2/2 + x^3/6`` and
    ``x^2/2 - x^3/6``), since the direct forms cancel catastrophically.
    Scalar only: numpy's ``exp`` differs from libm's by an ULP on some
    inputs, so array callers map this over their distinct ``(k', dt)``.
    """
    x = kp * dt_s
    ex = math.exp(-x)
    if x < 1e-6:
        r = (x * x / 2.0 - x * x * x / 6.0) / kp
        one_minus_ex = x - x * x / 2.0 + x * x * x / 6.0
    else:
        r = (x - 1.0 + ex) / kp
        one_minus_ex = 1.0 - ex
    return ex, one_minus_ex, r


def step_state(y1, y2, current_ma, kp, c, ex, om, r):
    """The ``(y1, y2)`` state after one constant-current step.

    ``ex, om, r`` are the step's :func:`step_factors`.
    """
    y0 = y1 + y2
    return (
        y1 * ex + (y0 * kp * c - current_ma) * om / kp - current_ma * c * r,
        y2 * ex + y0 * (1.0 - c) * om - current_ma * (1.0 - c) * r,
    )


def segment_map(current_ma, kp, c, ex, om, r) -> AffineMap:
    """:func:`step_state` as an affine map of the state.

    ``y1' = y1 (ex + c om) + y2 (c om) - I (om/kp + c r)`` and
    ``y2' = y1 ((1-c) om) + y2 (ex + (1-c) om) - I (1-c) r``.
    """
    return (
        ex + c * om,
        c * om,
        (1.0 - c) * om,
        ex + (1.0 - c) * om,
        -current_ma * (om / kp + c * r),
        -current_ma * (1.0 - c) * r,
    )


def affine_mul(outer: AffineMap, inner: AffineMap) -> AffineMap:
    """The map that applies ``inner``, then ``outer``.

    ``(A, a) . (B, b) = (A B, A b + a)``; ``affine_mul(m, m)`` squares
    ``m``. Every entry reads the old maps, so callers that update in a
    loop keep the old-value order binary powering needs.
    """
    o11, o12, o21, o22, p1, p2 = outer
    i11, i12, i21, i22, q1, q2 = inner
    return (
        o11 * i11 + o12 * i21,
        o11 * i12 + o12 * i22,
        o21 * i11 + o22 * i21,
        o21 * i12 + o22 * i22,
        o11 * q1 + o12 * q2 + p1,
        o21 * q1 + o22 * q2 + p2,
    )


def affine_apply(amap: AffineMap, y1, y2):
    """The ``(y1, y2)`` state ``amap`` maps ``(y1, y2)`` to."""
    a11, a12, a21, a22, b1, b2 = amap
    return a11 * y1 + a12 * y2 + b1, a21 * y1 + a22 * y2 + b2


@dataclasses.dataclass(frozen=True)
class KiBaMParameters:
    """KiBaM parameter set.

    Attributes
    ----------
    capacity_mah:
        Total charge in both wells when fully charged.
    c:
        Fraction of capacity in the available well, in (0, 1).
    k_prime_per_hour:
        Diffusion rate constant ``k' = k / (c * (1 - c))``, per hour.
    """

    capacity_mah: float
    c: float
    k_prime_per_hour: float

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise BatteryError(f"capacity must be positive: {self.capacity_mah}")
        if not 0.0 < self.c < 1.0:
            raise BatteryError(f"c must be in (0, 1): {self.c}")
        if self.k_prime_per_hour <= 0:
            raise BatteryError(f"k' must be positive: {self.k_prime_per_hour}")

    @property
    def k_prime_per_second(self) -> float:
        """Rate constant in canonical per-second units."""
        return self.k_prime_per_hour / SECONDS_PER_HOUR


#: Parameters calibrated against five of the paper's measured
#: lifetimes — (0A) 3.4 h, (0B) 12.9 h, (1) 6.13 h, (1A) 7.6 h and
#: (2) 14.1 h — by :func:`repro.core.calibration.calibrate_battery`
#: (jointly with the power model's idle curve and io_activity). The
#: capacity is an *effective model* parameter: with the small
#: available-charge fraction c, only ~40-70% of it is deliverable at
#: the paper's discharge rates, consistent with the physical pack
#: being smaller.
PAPER_KIBAM_PARAMETERS = KiBaMParameters(
    capacity_mah=1251.19, c=0.22628, k_prime_per_hour=0.42188
)


class KiBaM(Battery):
    """Kinetic Battery Model with closed-form constant-current stepping.

    Examples
    --------
    A rest period recovers available charge from the bound well:

    >>> cell = KiBaM(KiBaMParameters(1000.0, 0.3, 1.0))
    >>> cell.draw(200.0, 3600.0)         # one hour at 200 mA
    >>> before = cell.available_mas
    >>> cell.draw(0.0, 1800.0)           # rest half an hour
    >>> cell.available_mas > before
    True
    """

    #: Available charge (mA*s) at or below which the cell is considered
    #: exhausted. Absorbs root-solver residue at the death boundary; at
    #: paper currents it corresponds to well under a microsecond of load.
    DEATH_EPS_MAS = 1e-5

    #: Cap on the per-duration factor cache (the engine's duty cycles
    #: repeat a small set of segment lengths; anything past this is a
    #: pathological workload and we just start over).
    _FACTOR_CACHE_MAX = 4096

    def __init__(self, params: KiBaMParameters):
        super().__init__(params.capacity_mah)
        self.params = params
        total = mah_to_mas(params.capacity_mah)
        self._y1 = params.c * total
        self._y2 = (1.0 - params.c) * total
        self._dead = False
        # The rate constant and well split, read once: ``draw`` runs per
        # segment, and ``k_prime_per_second`` is a computed property.
        self._kp = params.k_prime_per_second
        self._c = params.c
        # dt -> (ex, one_minus_ex, r): the duration-dependent factors of
        # the closed form, computed exactly as _step computes them so the
        # fast path below is bit-identical to reference stepping.
        self._factors: dict[float, tuple[float, float, float]] = {}
        # (cycle, map, drain) of the last cycle composed: the fast-forward
        # sizes a jump with safe_cycles and then applies it with
        # advance_cycles, on the same cycle.
        self._last_cycle: tuple[tuple, AffineMap, float] | None = None

    # -- state inspection -------------------------------------------------
    @property
    def available_mas(self) -> float:
        """Charge in the available well, mA*s."""
        return self._y1

    @property
    def bound_mas(self) -> float:
        """Charge in the bound well, mA*s."""
        return self._y2

    def charge_fraction(self) -> float:
        total = mah_to_mas(self.params.capacity_mah)
        return max(0.0, (self._y1 + self._y2) / total)

    # -- closed-form stepping -------------------------------------------
    def _step(self, y1: float, y2: float, current_ma: float, dt_s: float) -> tuple[float, float]:
        """Pure function: the closed-form KiBaM step (no state change)."""
        kp = self._kp
        return step_state(y1, y2, current_ma, kp, self._c, *step_factors(kp, dt_s))

    def _dt_factors(self, dt_s: float) -> tuple[float, float, float]:
        """The duration-dependent closed-form factors, memoized per dt.

        Duty-cycled loads repeat the same handful of segment lengths
        hundreds of thousands of times; caching ``(e^-x, 1-e^-x, r)``
        removes the ``exp`` from the hot path. The values come from
        :func:`step_factors`, as :meth:`_step`'s do, so cached and
        uncached steps agree bit for bit.
        """
        cached = self._factors.get(dt_s)
        if cached is not None:
            return cached
        if len(self._factors) >= self._FACTOR_CACHE_MAX:
            self._factors.clear()
        self._factors[dt_s] = factors = step_factors(self._kp, dt_s)
        return factors

    def draw(self, current_ma: float, dt_s: float) -> None:
        """Fused fast path of :meth:`Battery.draw` for the common case.

        Far from death the available well provably survives the step
        (it drains no faster than ``I``), so the generic safety dance —
        ``time_to_death_lower_bound`` then possibly the exact root
        solve — and the death latch are skipped, and the closed form is
        evaluated inline with cached per-duration factors. This is the
        one inlined copy of :func:`step_state`, kept for speed in the
        same expression order, so fast and reference stepping produce
        bit-equal states. Near death, delegates to the careful
        base-class path.
        """
        y1 = self._y1
        if (
            self._dead
            or current_ma < 0
            or dt_s <= 0
            or current_ma * dt_s >= y1 - self.DEATH_EPS_MAS - 1e-9
        ):
            super().draw(current_ma, dt_s)
            return
        factors = self._factors.get(dt_s)
        if factors is None:
            factors = self._dt_factors(dt_s)
        ex, one_minus_ex, r = factors
        kp = self._kp
        c = self._c
        y2 = self._y2
        y0 = y1 + y2
        self._y1 = y1 * ex + (y0 * kp * c - current_ma) * one_minus_ex / kp - current_ma * c * r
        self._y2 = y2 * ex + y0 * (1.0 - c) * one_minus_ex - current_ma * (1.0 - c) * r
        self._delivered_mas += current_ma * dt_s

    def preview(self, current_ma: float, dt_s: float) -> tuple[float, float]:
        """The (y1, y2) state after a constant-current step, without
        mutating the cell. Fast path for duty-cycle sweeps."""
        if current_ma < 0 or dt_s < 0:
            raise BatteryError("preview needs non-negative current and duration")
        return self._step(self._y1, self._y2, current_ma, dt_s)

    # -- multi-step fast path -------------------------------------------
    def cycle_map(
        self, cycle: t.Sequence[tuple[float, float]]
    ) -> tuple[AffineMap, float]:
        """The affine map one duty cycle applies to the ``(y1, y2)`` state.

        For each constant-current segment the closed form is affine in
        the state, ``state' = M(dt) state + I * v(dt)``, so a whole
        piecewise-constant cycle composes into a single affine map
        ``(A, b)``. Returns ``((a11, a12, a21, a22, b1, b2), drain)``
        where ``drain`` is the total charge the cycle draws in mA*s.
        Charge conservation makes ``A`` column-stochastic, so its
        powers are numerically stable. The last cycle's map is kept, so
        asking again for the same cycle composes nothing.
        """
        key = tuple(cycle)
        last = self._last_cycle
        if last is not None and last[0] == key:
            return last[1], last[2]
        check_cycle(cycle)
        kp, c = self._kp, self._c
        amap = IDENTITY_MAP
        drain = 0.0
        for current_ma, dt_s in cycle:
            segment = segment_map(current_ma, kp, c, *self._dt_factors(dt_s))
            amap = affine_mul(segment, amap)
            drain += current_ma * dt_s
        self._last_cycle = (key, amap, drain)
        return amap, drain

    def _heads_ordered(self) -> bool:
        """True when the bound head is not below the available head.

        ``h1 = y1 / c`` and ``h2 = y2 / (1 - c)``. Their gap obeys
        ``d(h2 - h1)/dt = I / c - k' (h2 - h1)``, so a discharge-only
        history (every current >= 0) keeps ``h2 >= h1`` for good and the
        recovery flow into the available well non-negative. A fresh cell
        sits at ``h1 == h2`` up to rounding, hence the relative slack.
        """
        c = self.params.c
        return self._y1 * (1.0 - c) <= self._y2 * c * (1.0 + 1e-12)

    def safe_cycles(
        self,
        cycle: t.Sequence[tuple[float, float]],
        margin_cycles: int,
        limit: int,
    ) -> int:
        """Largest ``n <= limit`` whose n-cycle jump provably stays alive.

        Returns the largest ``n`` for which the state after every
        ``k <= n`` whole cycles keeps ``y1 > margin_cycles * drain +
        DEATH_EPS_MAS``; with ``margin_cycles >= 2`` the result is always
        accepted by :meth:`advance_cycles`. The bound credits the charge
        the bound well feeds back during the jump, so one call reaches
        within ``margin_cycles`` cycles of death.

        Why it is exact: at cycle ends ``y1_k = c (q0 - k drain) -
        c (1 - c) (d* + (d0 - d*) lam^k)``, where ``d`` is the head gap
        ``h2 - h1``, ``d*`` its periodic fixed point and ``lam = e^{-k'T}``
        in (0, 1). That sequence is either monotone decreasing or
        concave in ``k``, so ``{k : y1_k > floor}`` is a prefix
        ``0..K`` and greedy binary lifting over the squared cycle maps
        finds ``min(K, limit)`` in O(log min(K, limit)) compositions.
        Within a cycle ``y1`` falls by at most the cycle's drain while
        ``h2 >= h1``; with unordered heads (only reachable by
        constructing such a state) the argument fails and 0 is returned.
        """
        if limit <= 0 or self._dead or not cycle:
            return 0
        amap, drain = self.cycle_map(cycle)
        floor = margin_cycles * drain + self.DEATH_EPS_MAS
        y1, y2 = self._y1, self._y2
        if y1 <= floor or not self._heads_ordered():
            return 0
        # powers[j] is the cycle map raised to 2**j; squaring stops once
        # 2**j cycles from the start no longer clear the floor (then
        # K < 2**j), so the cost is O(log K) even for a huge limit.
        powers = [amap]
        while 1 << len(powers) <= limit and affine_apply(amap, y1, y2)[0] > floor:
            amap = affine_mul(amap, amap)
            powers.append(amap)
        n = 0
        for j in range(len(powers) - 1, -1, -1):
            step = 1 << j
            if n + step > limit:
                continue
            ny1, ny2 = affine_apply(powers[j], y1, y2)
            if ny1 > floor:
                y1, y2 = ny1, ny2
                n += step
        return n

    def advance_cycles(
        self, cycle: t.Sequence[tuple[float, float]], n_cycles: int
    ) -> None:
        """Advance ``n_cycles`` repetitions of a duty cycle analytically.

        One O(log n) affine-map power replaces ``n * len(cycle)``
        individual draws — this is what makes lifetime prediction over
        tens of thousands of frame cycles cheap. The jump is accepted
        only when both endpoints keep more than one cycle's drain in the
        available well (``y1 > drain + DEATH_EPS_MAS`` before and after)
        and the heads are ordered (``h2 >= h1``). That rules out death at
        every intermediate instant: the cycle-end ``y1`` is monotone
        decreasing or concave in the cycle index, so its minimum is at an
        endpoint, and within a cycle it falls by at most the drain (see
        :meth:`safe_cycles`, which sizes jumps to this rule). Any other
        jump raises :class:`BatteryError` and leaves the state untouched.
        """
        if n_cycles < 0:
            raise BatteryError(f"cycle count must be >= 0, got {n_cycles}")
        if n_cycles == 0 or not cycle:
            return
        if self._dead:
            raise BatteryError("cannot advance a dead cell")
        amap, drain = self.cycle_map(cycle)
        floor = drain + self.DEATH_EPS_MAS
        if self._y1 <= floor or not self._heads_ordered():
            raise BatteryError(
                f"advance_cycles({n_cycles}) may cross death; "
                "the cell must start above one cycle's drain with h2 >= h1"
            )
        # Binary power of the affine map: (A, b)^2 = (A A, A b + b).
        power = IDENTITY_MAP
        n = n_cycles
        while n:
            if n & 1:
                power = affine_mul(power, amap)
            n >>= 1
            if n:
                amap = affine_mul(amap, amap)
        ny1, ny2 = affine_apply(power, self._y1, self._y2)
        if ny1 <= floor:
            raise BatteryError(
                f"advance_cycles({n_cycles}) may cross death; "
                "leave at least one cycle's drain of margin"
            )
        self._y1 = ny1
        self._y2 = ny2
        self._delivered_mas += n_cycles * drain

    def _draw_survivor(self, current_ma: float, dt_s: float) -> None:
        """:meth:`draw` minus its death check, for a proven-survivable segment.

        :func:`lifetime_seconds` calls this after the end-of-segment sign
        test has shown the cell outlives the step; re-running the check
        would repeat the root solve the test exists to avoid. The state
        update is the one :meth:`draw` makes, bit for bit.
        """
        self._advance(current_ma, dt_s)
        self._delivered_mas += current_ma * dt_s

    def _advance(self, current_ma: float, dt_s: float) -> None:
        self._y1, self._y2 = self._step(self._y1, self._y2, current_ma, dt_s)
        if self._y1 < -1e-6:
            raise BatteryError(
                f"available charge went negative ({self._y1:.3g} mA*s); "
                "caller failed to truncate at time_to_death()"
            )
        # Death latches: once the available well empties (to within
        # solver residue), the cell is exhausted for good — the paper's
        # nodes do not come back after a battery failure, even though a
        # physical cell would recover a little charge at rest.
        if self._y1 <= self.DEATH_EPS_MAS:
            self._y1 = max(self._y1, 0.0)
            self._dead = True

    # -- death prediction -------------------------------------------------
    def time_to_death(self, current_ma: float) -> float:
        """Solve ``y1(t) = 0`` for constant ``current_ma``.

        For any positive current the available well eventually empties
        (asymptotically ``y1 ~ -I*c*t``), so a root always exists; it is
        found by geometric bracket expansion plus Brent's method.
        """
        if current_ma < 0:
            raise BatteryError(f"negative current {current_ma} mA")
        if self._dead or self._y1 <= self.DEATH_EPS_MAS:
            return 0.0
        if current_ma == 0.0:
            return float("inf")

        def y1_at(dt: float) -> float:
            return self._step(self._y1, self._y2, current_ma, dt)[0]

        # Ideal-battery bound: cannot die before delivering y1 from the
        # available well alone. Treat anything past ~30k years as never
        # (also guards vanishing currents, whose bound overflows).
        lo = 0.0
        hi = self._y1 / current_ma
        if not hi < 1e12:
            return float("inf")
        while y1_at(hi) > 0.0:
            lo = hi
            hi *= 2.0
            if hi > 1e12:
                return float("inf")
        if hi == lo:  # pragma: no cover - defensive
            return hi
        return float(brentq(y1_at, lo, hi, xtol=1e-9, rtol=1e-12))

    def time_to_death_lower_bound(self, current_ma: float) -> float:
        """Cheap lower bound: the available well drains no faster than I.

        During discharge the bound-to-available flow is non-negative
        (the available head never exceeds the bound head under a
        discharge-only history), so ``y1 / I`` underestimates the death
        time without any root solving.
        """
        if current_ma < 0:
            raise BatteryError(f"negative current {current_ma} mA")
        if self._dead or self._y1 <= self.DEATH_EPS_MAS:
            return 0.0
        if current_ma == 0.0:
            return float("inf")
        return self._y1 / current_ma

    def reset(self) -> None:
        total = mah_to_mas(self.params.capacity_mah)
        self._y1 = self.params.c * total
        self._y2 = (1.0 - self.params.c) * total
        self._dead = False
        self._reset_delivery()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KiBaM y1={self._y1 / SECONDS_PER_HOUR:.1f} mAh "
            f"y2={self._y2 / SECONDS_PER_HOUR:.1f} mAh>"
        )


def lifetime_seconds(
    cell: KiBaM,
    cycle: t.Sequence[tuple[float, float]],
    limit_s: float,
    t_s: float = 0.0,
) -> tuple[float, int]:
    """Walk a repeating ``(current_ma, dt_s)`` duty cycle to death.

    This is the scalar reference loop every lifetime predictor shares:
    whole duty cycles are fast-forwarded with the exact affine cycle
    map (:meth:`KiBaM.advance_cycles`, O(log n) per jump) while the
    safety margin allows; the final approach to death walks segment by
    segment and solves the last partial segment exactly.

    The walk decides each segment in three tiers. The cheap bound
    ``y1/I > dt`` clears most of them. Past it, the closed-form end
    value ``y1(dt)`` decides: under a constant ``I > 0``,
    ``y1(t) = A e^{-k't} + B - I c t`` is convex and strictly
    decreasing, or concave with ``y1(0) > 0``, so it crosses zero at
    most once and ``y1(dt) > 0`` proves the cell outlives the segment.
    Only an empty cell or one whose end value is ``<= 0`` calls
    :meth:`KiBaM.time_to_death` — one Brent solve per death, not per
    near-death segment. The decisions equal solving every near-death
    segment except where a root lies within Brent's ``xtol`` (1e-9 s)
    of a segment end.

    :func:`repro.core.calibration.predicted_lifetime_hours` delegates
    here, and the vectorized cohort stepper in :mod:`repro.batch`
    replays exactly this jump/walk sequence per config — which is what
    makes scalar and batched sweeps bit-identical.

    Parameters
    ----------
    cell:
        The (possibly mid-life) cell to discharge; mutated in place.
    cycle:
        Piecewise-constant segments, repeated until death.
    limit_s:
        Absolute time horizon; the walk gives up once ``t`` reaches it.
    t_s:
        Time already elapsed (the horizon is absolute, not relative).

    Returns
    -------
    ``(death_s, completed_cycles)`` — the absolute death time in
    seconds (``math.inf`` when the cell is still alive at ``limit_s``)
    and the number of *whole* cycles completed before death. The cycle
    count is the batch layer's frame-count identity oracle.
    """
    cycle = [(current, dt) for current, dt in cycle]
    cycle_s = check_cycle(cycle)
    drain_mas = sum(current * dt for current, dt in cycle)
    t = t_s
    cycles = 0
    while t < limit_s:
        if drain_mas > 0.0 and cycle_s > 0.0:
            # The available well drains no faster than one cycle's total
            # charge per cycle, so this many whole cycles provably end
            # with the cell still alive (see KiBaM.advance_cycles). This
            # stays the conservative cap rather than safe_cycles: the
            # batch cohort replays exactly this jump sequence bitwise.
            safe = int(cell.available_mas / drain_mas) - 2
            remaining = int((limit_s - t) / cycle_s) + 1
            jump = min(safe, remaining)
            if jump > 0:
                cell.advance_cycles(cycle, jump)
                t += jump * cycle_s
                cycles += jump
                continue
        for current, dt_s in cycle:
            # Cheap bound first; near death, the end-of-segment sign test
            # proves survival, so the root solve runs only on the segment
            # that empties the cell (see the docstring).
            lb = cell.time_to_death_lower_bound(current)
            if lb > dt_s:
                cell.draw(current, dt_s)
            elif lb > 0.0 and cell.preview(current, dt_s)[0] > 0.0:
                cell._draw_survivor(current, dt_s)
            else:
                ttd = cell.time_to_death(current)
                if ttd <= dt_s:
                    return t + ttd, cycles
                cell.draw(current, dt_s)
            t += dt_s
        cycles += 1
    return math.inf, cycles


def PAPER_BATTERY() -> KiBaM:
    """A fresh battery with the paper-calibrated parameters.

    A factory rather than a module-level instance because batteries are
    stateful: each node (and each experiment) needs its own.
    """
    return KiBaM(PAPER_KIBAM_PARAMETERS)
