"""Unit tests for the simulation kernel."""

import pytest

from repro.des import SchedulingError, Simulation, SimulationError


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulation(start_time=100.0)
    assert sim.now == 100.0


def test_call_in_advances_clock():
    sim = Simulation()
    seen = []
    sim.call_in(10.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [10.0]
    assert sim.now == 10.0


def test_call_at_absolute():
    sim = Simulation()
    seen = []
    sim.call_at(7.5, seen.append, "x")
    sim.run()
    assert seen == ["x"]
    assert sim.now == 7.5


def test_cannot_schedule_in_past():
    sim = Simulation()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(1.0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.call_in(-1.0, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulation()
    fired = []
    sim.call_in(5.0, fired.append, "a")
    sim.call_in(15.0, fired.append, "b")
    sim.run(until=10.0)
    assert fired == ["a"]
    assert sim.now == 10.0
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 15.0


def test_run_until_in_past_raises():
    sim = Simulation()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.run(until=1.0)


def test_events_scheduled_during_run_are_executed():
    sim = Simulation()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.call_in(3.0, second)

    def second():
        seen.append(("second", sim.now))

    sim.call_in(1.0, first)
    sim.run()
    assert seen == [("first", 1.0), ("second", 4.0)]


def test_step_returns_false_when_empty():
    sim = Simulation()
    assert sim.step() is False


def test_cancel_scheduled_event():
    sim = Simulation()
    fired = []
    ev = sim.call_in(1.0, fired.append, "x")
    sim.cancel(ev)
    sim.run()
    assert fired == []


def test_rng_streams_reproducible():
    a = Simulation(seed=42).rng.get("workload")
    b = Simulation(seed=42).rng.get("workload")
    assert a.random() == b.random()


def test_rng_streams_independent_of_creation_order():
    s1 = Simulation(seed=7)
    s1.rng.get("a")
    x = s1.rng.get("b").random()
    s2 = Simulation(seed=7)
    y = s2.rng.get("b").random()  # created first this time
    assert x == y


def test_rng_different_names_differ():
    sim = Simulation(seed=0)
    assert sim.rng.get("a").random() != sim.rng.get("b").random()


def test_rng_spawn_indexed():
    sim = Simulation(seed=0)
    g0 = sim.rng.spawn("rep", 0)
    g1 = sim.rng.spawn("rep", 1)
    assert g0.random() != g1.random()


def test_run_process_returns_value():
    sim = Simulation()

    def proc():
        yield sim.timeout(5)
        return "done"

    p = sim.process(proc())
    assert sim.run_process(p) == "done"
    assert sim.now == 5


def test_run_process_deadlock_detected():
    sim = Simulation()

    def proc():
        yield sim.event()  # never triggered

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(p)


def test_run_process_raises_process_error():
    sim = Simulation()

    def proc():
        yield sim.timeout(1)
        raise ValueError("boom")

    p = sim.process(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run_process(p)


def test_run_matches_reference_order():
    """A run dispatches exactly the live events, sorted by
    ``(time, priority, scheduling order)``."""
    sim = Simulation(seed=42)
    fired = []
    expected = []
    x = sim.rng.get("t").bit_generator.state["state"]["state"]
    handles = []
    for i in range(600):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        t = (x >> 16) % 10_000 / 7.0
        priority = i % 3 - 1
        handles.append(sim.call_at(t, fired.append, (t, i), priority=priority))
        if i % 5 and t <= 2000.0:  # every fifth event is cancelled below
            expected.append((t, priority, i))
    for h in handles[::5]:
        sim.cancel(h)
    sim.run(until=2000.0)
    assert fired == [(t, i) for t, _, i in sorted(expected)]
    assert sim.now == 2000.0
