"""Property-based tests on the simulation kernel."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Simulator


class TestClockProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_time_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def body(sim, delays):
            for d in delays:
                yield sim.timeout(d)
                observed.append(sim.now)

        sim.process(body(sim, delays))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_final_time_is_sum(self, delays):
        sim = Simulator()

        def body(sim, delays):
            for d in delays:
                yield sim.timeout(d)

        sim.process(body(sim, delays))
        sim.run()
        assert abs(sim.now - sum(delays)) < 1e-6 * max(1.0, sum(delays))

    @given(
        delays=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20),
        seed_order=st.permutations(list(range(5))),
    )
    @settings(max_examples=50, deadline=None)
    def test_deterministic_replay(self, delays, seed_order):
        def run_once():
            sim = Simulator()
            log = []

            def worker(sim, tag, ds):
                for d in ds:
                    yield sim.timeout(d)
                    log.append((tag, sim.now))

            for tag in seed_order:
                sim.process(worker(sim, tag, delays))
            sim.run()
            return log

        assert run_once() == run_once()
