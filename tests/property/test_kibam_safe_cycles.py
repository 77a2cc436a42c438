"""``KiBaM.safe_cycles``: the recovery-aware jump bound is sound and tight.

For random cells (c, k'), positive-current duty cycles and partially
discharged start states, the ``n`` that ``safe_cycles(cycle, 2, limit)``
returns must be:

- **sound** — walking ``n`` cycles draw by draw never latches death,
  and lands where one ``advance_cycles(n)`` jump lands;
- **maximal** — one more cycle ends at or below the floor
  ``2 * drain + DEATH_EPS_MAS``, unless ``n`` hit ``limit``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.hw.battery import KiBaM, KiBaMParameters

MARGIN = 2
#: Agreement between stepwise and jumped states, relative to the
#: cell's remaining charge (the scale the rounding error lives on).
REL_TOL = 1e-9

segment = st.tuples(st.floats(1.0, 300.0), st.floats(0.05, 2.0))


@given(
    c=st.floats(0.05, 0.95),
    k_prime_per_hour=st.floats(0.01, 20.0),
    cycle=st.lists(segment, min_size=1, max_size=4),
    start_current=st.floats(1.0, 400.0),
    start_fraction=st.floats(0.0, 0.9),
    rest_s=st.floats(0.0, 3600.0),
    limit=st.integers(1, 1500),
)
@settings(max_examples=120, deadline=None)
def test_safe_cycles_sound_and_maximal(
    c, k_prime_per_hour, cycle, start_current, start_fraction, rest_s, limit
):
    params = KiBaMParameters(
        capacity_mah=5.0, c=c, k_prime_per_hour=k_prime_per_hour
    )
    start = KiBaM(params)
    # A partially discharged (and possibly part-recovered) start state.
    start.draw(start_current, start_fraction * start.time_to_death(start_current))
    start.draw(0.0, rest_s)
    y1_0, y2_0 = start.available_mas, start.bound_mas

    def fresh() -> KiBaM:
        cell = KiBaM(params)
        cell._y1, cell._y2 = y1_0, y2_0
        return cell

    drain = sum(i * dt for i, dt in cycle)
    floor = MARGIN * drain + KiBaM.DEATH_EPS_MAS
    scale = y1_0 + y2_0
    n = fresh().safe_cycles(cycle, MARGIN, limit)
    assert 0 <= n <= limit
    if y1_0 <= floor:
        assert n == 0
        return

    walked = fresh()
    for _ in range(n):
        for current, dt in cycle:
            walked.draw(current, dt)
            assert not walked.is_dead
    assert walked.available_mas > floor - REL_TOL * scale

    if n:
        jumped = fresh()
        jumped.advance_cycles(cycle, n)
        assert abs(jumped.available_mas - walked.available_mas) <= REL_TOL * scale
        assert abs(jumped.bound_mas - walked.bound_mas) <= REL_TOL * scale

    if n < limit:
        # The end state keeps more than one cycle's drain, so the extra
        # cycle is walked without dying, and must end on the floor.
        for current, dt in cycle:
            walked.draw(current, dt)
            assert not walked.is_dead
        assert walked.available_mas <= floor + REL_TOL * scale
