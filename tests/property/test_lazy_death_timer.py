"""Lazy death timers: the node dies exactly when an eager reference does.

:meth:`ItsyNode.set_state` arms a battery-death timer only when the new
draw could outrun the earliest pending one (the proof is in
``ItsyNode._schedule_death_timer``). For random ``(mode, level, dt)``
sequences on a small KiBaM, the node must:

- die at the instant (within 1e-9 s) and during the same state of the
  sequence as a reference that solves for the death instant afresh at
  every change, i.e. re-arms eagerly;
- leave, after every state change, no pending timer later than
  ``segment_start + time_to_death_lower_bound(I)``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.hw import ItsyNode
from repro.hw.battery import KiBaM, KiBaMParameters
from repro.hw.dvs import SA1100_TABLE
from repro.hw.power import PAPER_POWER_MODEL, PowerMode
from repro.sim import Simulator

MODES = (PowerMode.IDLE, PowerMode.COMMUNICATION, PowerMode.COMPUTATION, PowerMode.SLEEP)

state = st.tuples(
    st.sampled_from(MODES),
    st.sampled_from(SA1100_TABLE.levels),
    st.floats(0.01, 20.0),
)


def _eager_reference(params, states):
    """(death instant, states completed before it) by direct integration.

    Every change solves for the death instant under the new draw, as an
    eagerly re-armed timer would. Time advances with the kernel's own
    float arithmetic (``t + dt``, segment length ``t_next - t``), so the
    battery sees bit-identical segments. The last state persists until
    death, as it does on the node.
    """
    cell = KiBaM(params)
    t = 0.0
    for k, (mode, level, dt) in enumerate(states):
        current = PAPER_POWER_MODEL.current_ma(mode, level)
        death_in = cell.time_to_death(current)
        t_next = t + dt
        if t + death_in <= t_next:
            return t + death_in, k
        cell.draw(current, t_next - t)
        t = t_next
    mode, level, _ = states[-1]
    return t + cell.time_to_death(PAPER_POWER_MODEL.current_ma(mode, level)), len(states)


@given(
    states=st.lists(state, min_size=1, max_size=40),
    capacity_mah=st.floats(0.05, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_lazy_timer_dies_with_eager_reference(states, capacity_mah):
    params = KiBaMParameters(capacity_mah=capacity_mah, c=0.22628, k_prime_per_hour=0.42188)
    sim = Simulator()
    node = ItsyNode(sim, "n", KiBaM(params), PAPER_POWER_MODEL, SA1100_TABLE)
    completed = []

    def play_states():
        for mode, level, dt in states:
            node.set_state(mode, level)
            bound = node.battery.time_to_death_lower_bound(node.current_ma)
            assert node._armed_at <= node._segment_start + bound
            yield sim.timeout(dt)
            completed.append(dt)

    node.spawn(play_states())
    sim.run()

    death_s, states_before = _eager_reference(params, states)
    assert node.death_time_s is not None
    assert abs(node.death_time_s - death_s) <= 1e-9
    assert len(completed) == states_before
