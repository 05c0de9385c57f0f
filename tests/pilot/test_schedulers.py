"""Pure-policy tests for the unit schedulers, and the bindable pilots
the unit manager hands them."""

import pytest

from repro.des import Simulation
from repro.net import Network
from repro.pilot import (
    Agent,
    BackfillScheduler,
    ComputePilot,
    ComputePilotDescription,
    ComputeUnit,
    ComputeUnitDescription,
    DirectScheduler,
    LocalityScheduler,
    PilotState,
    RoundRobinScheduler,
    UnitManager,
)

SITES = ("a", "b", "c", "q")


def _env():
    sim = Simulation(seed=0)
    network = Network(sim)
    for site in SITES:
        network.add_site(site)
    return sim, network


def _pilot(sim, site, cores=4, state=PilotState.ACTIVE, agent=True):
    pilot = ComputePilot(
        sim, ComputePilotDescription(resource=site, cores=cores, runtime_min=60)
    )
    if agent:
        pilot.agent = Agent(sim, pilot, site=site)
    pilot.advance(state)
    return pilot


def _units(sim, n, cores=1, inputs=()):
    return [
        ComputeUnit(
            sim,
            ComputeUnitDescription(
                name=f"u{i}", duration_s=10.0, cores=cores,
                input_staging=tuple(inputs),
            ),
        )
        for i in range(n)
    ]


def _descriptions(n):
    return [ComputeUnitDescription(name=f"u{i}", duration_s=10.0) for i in range(n)]


class _Quarantine:
    """Health stub: site ``q`` is quarantined."""

    def is_quarantined(self, resource):
        return resource == "q"


# -- policies, given the bindable pilots ---------------------------------------


def test_direct_round_robins_over_pilots():
    sim, _ = _env()
    pilots = [_pilot(sim, s, state=PilotState.NEW, agent=False) for s in "abc"]
    units = _units(sim, 6)
    out = DirectScheduler().assign(units, pilots)
    assert [u for u, _ in out] == units
    assert [p for _, p in out] == pilots + pilots


def test_direct_skips_pilots_a_unit_can_never_fit():
    sim, _ = _env()
    small = _pilot(sim, "a", cores=2, state=PilotState.NEW, agent=False)
    big = _pilot(sim, "b", cores=8, state=PilotState.NEW, agent=False)
    out = DirectScheduler().assign(_units(sim, 3, cores=4), [small, big])
    assert [p for _, p in out] == [big, big, big]
    assert DirectScheduler().assign(_units(sim, 2, cores=16), [small, big]) == []


def test_round_robin_shares_the_direct_body():
    sim, _ = _env()
    pilots = [_pilot(sim, s) for s in "ab"]
    out = RoundRobinScheduler().assign(_units(sim, 3), pilots)
    assert [p for _, p in out] == [pilots[0], pilots[1], pilots[0]]


def test_backfill_fills_first_pilot_then_the_next():
    sim, _ = _env()
    first, second = _pilot(sim, "a", cores=4), _pilot(sim, "b", cores=4)
    out = BackfillScheduler().assign(_units(sim, 6), [first, second])
    assert [p for _, p in out] == [first] * 4 + [second] * 2


def test_backfill_respects_uncommitted_cores():
    sim, _ = _env()
    pilot = _pilot(sim, "a", cores=4)
    pilot.agent.commit(_units(sim, 1, cores=3)[0])
    units = _units(sim, 2, cores=2)
    assert BackfillScheduler().assign(units, [pilot]) == []
    assert BackfillScheduler().assign(_units(sim, 2), [pilot]) != []


def test_locality_breaks_ties_by_pilot_order():
    sim, network = _env()
    first, second = _pilot(sim, "a", cores=2), _pilot(sim, "b", cores=2)
    out = LocalityScheduler(network).assign(
        _units(sim, 3, inputs=("x.dat",)), [first, second]
    )
    assert [p for _, p in out] == [first, first, second]


def test_locality_prefers_site_with_inputs():
    sim, network = _env()
    first, second = _pilot(sim, "a", cores=2), _pilot(sim, "b", cores=2)
    network.fs("b").write("x.dat", 1.0, 0.0)
    out = LocalityScheduler(network).assign(
        _units(sim, 3, inputs=("x.dat",)), [first, second]
    )
    assert [p for _, p in out] == [second, second, first]


# -- the bindable pilots the unit manager builds -------------------------------


def _bind(sim, network, scheduler, pilots, n_units):
    um = UnitManager(sim, network, scheduler=scheduler, health=_Quarantine())
    um.add_pilots(pilots)
    units = um.submit_units(_descriptions(n_units))
    sim.run(until=sim.now + 0.001)
    return units


@pytest.mark.parametrize("scheduler", ["backfill", "round-robin", "locality"])
def test_late_binding_skips_quarantined_inactive_and_stopped(scheduler):
    sim, network = _env()
    good = _pilot(sim, "a")
    stopped = _pilot(sim, "b")
    stopped.agent.stop()
    inactive = _pilot(sim, "c", state=PilotState.PENDING_ACTIVE, agent=False)
    quarantined = _pilot(sim, "q")
    units = _bind(sim, network, scheduler, [quarantined, inactive, stopped, good], 3)
    assert {u.pilot for u in units} == {good}


def test_early_binding_skips_quarantined_and_final_pilots():
    sim, network = _env()
    inactive = _pilot(sim, "a", state=PilotState.PENDING_ACTIVE, agent=False)
    done = _pilot(sim, "b", state=PilotState.DONE, agent=False)
    quarantined = _pilot(sim, "q", state=PilotState.PENDING_ACTIVE, agent=False)
    units = _bind(sim, network, "direct", [quarantined, done, inactive], 3)
    assert {u.pilot for u in units} == {inactive}


def test_late_binding_fills_the_oldest_activated_pilot_first():
    sim, network = _env()
    # submitted first, activated last
    young = _pilot(sim, "a", state=PilotState.PENDING_ACTIVE, agent=False)
    old = _pilot(sim, "b")
    sim.run(until=5.0)
    young.agent = Agent(sim, young, site="a")
    young.advance(PilotState.ACTIVE)
    units = _bind(sim, network, "backfill", [young, old], 6)
    assert [u.pilot for u in units] == [old] * 4 + [young] * 2
