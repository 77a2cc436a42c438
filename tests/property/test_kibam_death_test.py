"""The end-of-segment death test is exact: ``y1(dt) > 0`` iff the cell
outlives the segment.

Under a constant current ``I > 0`` the available well follows
``y1(t) = A e^{-k't} + B - I c t``. That curve is convex and strictly
decreasing, or concave with ``y1(0) > 0``, so it crosses zero at most
once. For random cells (c, k'), partially discharged start states and
positive currents this checks both halves of the argument the scalar
walk and the cohort stepper rely on:

- ``y1`` sampled densely over ``[0, 2 ttd]`` changes sign at most once;
- ``preview(I, dt)[0] > 0`` exactly when ``time_to_death(I) > dt``,
  wherever the root is not within Brent's tolerance of ``dt``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.hw.battery import KiBaM, KiBaMParameters

#: Distance from the root below which the Brent tolerance may decide.
BAND_S = 1e-6
SAMPLES = 400


def start_cell(c, k_prime_per_hour, start_current, start_fraction, rest_s):
    params = KiBaMParameters(capacity_mah=5.0, c=c, k_prime_per_hour=k_prime_per_hour)
    cell = KiBaM(params)
    # A partially discharged (and possibly part-recovered) start state.
    cell.draw(start_current, start_fraction * cell.time_to_death(start_current))
    cell.draw(0.0, rest_s)
    return cell


cell_args = dict(
    c=st.floats(0.05, 0.95),
    k_prime_per_hour=st.floats(0.01, 20.0),
    start_current=st.floats(1.0, 400.0),
    start_fraction=st.floats(0.0, 0.9),
    rest_s=st.floats(0.0, 3600.0),
    current=st.floats(0.5, 400.0),
)


@given(**cell_args)
@settings(max_examples=120, deadline=None)
def test_available_well_crosses_zero_at_most_once(
    c, k_prime_per_hour, start_current, start_fraction, rest_s, current
):
    cell = start_cell(c, k_prime_per_hour, start_current, start_fraction, rest_s)
    ttd = cell.time_to_death(current)
    assert 0.0 < ttd < float("inf")
    signs = [
        cell.preview(current, 2.0 * ttd * k / SAMPLES)[0] > 0.0
        for k in range(SAMPLES + 1)
    ]
    assert signs[0]
    assert sum(a != b for a, b in zip(signs, signs[1:])) <= 1


@given(**cell_args, dt_frac=st.floats(0.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_end_value_sign_decides_survival(
    c, k_prime_per_hour, start_current, start_fraction, rest_s, current, dt_frac
):
    cell = start_cell(c, k_prime_per_hour, start_current, start_fraction, rest_s)
    ttd = cell.time_to_death(current)
    dt = dt_frac * ttd
    assume(abs(ttd - dt) > BAND_S)
    assert (cell.preview(current, dt)[0] > 0.0) == (ttd > dt)
