"""Event life cycle and conditions."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Simulator, Timeout


class TestEventLifecycle:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_sets_value(self, sim):
        ev = sim.event().succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_double_trigger_rejected(self, sim):
        ev = sim.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_fail_stores_exception(self, sim):
        exc = RuntimeError("boom")
        ev = sim.event().fail(exc)
        assert ev.exception is exc
        assert not ev.ok
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_processed_after_run(self, sim):
        ev = sim.event().succeed("x")
        sim.run()
        assert ev.processed

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event().succeed("x")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_delayed_succeed(self, sim):
        ev = sim.event().succeed("later", delay=5.0)
        sim.run()
        assert sim.now == 5.0
        assert ev.processed


class TestTimeout:
    def test_fires_at_delay(self, sim):
        t = Timeout(sim, 2.5, value="v")
        sim.run()
        assert sim.now == 2.5
        assert t.value == "v"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timeout(sim, -1.0)

    def test_zero_delay_allowed(self, sim):
        t = Timeout(sim, 0.0)
        sim.run()
        assert t.processed
        assert sim.now == 0.0


class TestAnyOf:
    def test_fires_on_first(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        cond = sim.any_of([a, b])
        sim.run(until=cond)
        assert sim.now == 1.0
        assert a in cond.value and b not in cond.value

    def test_value_maps_fired_events(self, sim):
        a = sim.timeout(1.0, "a")
        cond = sim.any_of([a, sim.timeout(3.0)])
        sim.run(until=cond)
        assert cond.value[a] == "a"

    def test_failed_constituent_fails_condition(self, sim):
        a = sim.event()
        cond = sim.any_of([a, sim.timeout(10.0)])
        a.fail(RuntimeError("x"))
        sim.run(until=cond)
        assert not cond.ok

    def test_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([sim.timeout(1), other.timeout(1)])


class TestAllOf:
    def test_waits_for_all(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        cond = sim.all_of([a, b])
        sim.run(until=cond)
        assert sim.now == 2.0
        assert cond.value == {a: "a", b: "b"}

    def test_empty_fires_immediately(self, sim):
        cond = sim.all_of([])
        sim.run()
        assert cond.processed

    def test_already_processed_constituents(self, sim):
        a = sim.timeout(1.0, "a")
        sim.run()
        cond = sim.all_of([a])
        sim.run()
        assert cond.value == {a: "a"}


def _observers(cond, events):
    """How many times ``cond._observe`` is still registered on ``events``."""
    observe = cond._observe
    return sum(
        1 for ev in events for cb in (ev.callbacks or []) if cb == observe
    )


class TestConditionDetach:
    """A triggered condition leaves no callback behind on its constituents.

    A registration left on a pending constituent is a reference cycle
    (condition -> events -> constituent -> callbacks -> condition) that
    only the cyclic collector can free.
    """

    def test_any_of_detaches_from_the_loser(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        cond = sim.any_of([a, b])
        sim.run(until=cond)
        assert not b.processed
        assert _observers(cond, [a, b]) == 0

    def test_any_of_with_processed_first_constituent(self, sim):
        done = sim.timeout(1.0, "done")
        sim.run()
        pending = sim.event()
        cond = sim.any_of([done, pending])
        assert cond.triggered
        assert _observers(cond, [pending]) == 0
        sim.run()
        assert cond.value == {done: "done"}

    def test_all_of_with_processed_first_constituent_waits(self, sim):
        done = sim.timeout(1.0, "done")
        sim.run()
        later = sim.timeout(2.0, "later")
        cond = sim.all_of([done, later])
        assert not cond.triggered
        sim.run(until=cond)
        assert sim.now == 3.0
        assert cond.value == {done: "done", later: "later"}

    def test_any_of_duplicated_constituent(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.event()
        cond = sim.any_of([b, a, b])
        assert _observers(cond, [b]) == 2
        sim.run(until=cond)
        assert _observers(cond, [a, b]) == 0

    def test_all_of_failure_detaches_every_duplicate(self, sim):
        a, b = sim.event(), sim.event()
        cond = sim.all_of([b, a, b])
        a.fail(RuntimeError("x"))
        sim.run(until=cond)
        assert not cond.ok
        assert _observers(cond, [a, b]) == 0

    def test_all_of_duplicated_constituent_counts_each_listing(self, sim):
        a = sim.timeout(1.0, "a")
        cond = sim.all_of([a, a])
        sim.run(until=cond)
        assert cond.value == {a: "a"}
        assert _observers(cond, [a]) == 0
