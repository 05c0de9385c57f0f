"""Tests for the sampled-wait cluster (the ablation's rejected model)."""

import numpy as np
import pytest

from repro.cluster import BatchJob, JobState
from repro.cluster.sampled import SampledWaitCluster, fit_lognormal_waits
from repro.des import Simulation


def make(sim, mu=3.0, sigma=0.5):
    return SampledWaitCluster(
        sim, "sampled", nodes=4, cores_per_node=8,
        wait_mu=mu, wait_sigma=sigma, submit_overhead=0.0,
    )


def test_fit_lognormal():
    mu, sigma = fit_lognormal_waits([100, 200, 400, 800])
    assert mu == pytest.approx(np.log([100, 200, 400, 800]).mean())
    assert sigma > 0
    with pytest.raises(ValueError):
        fit_lognormal_waits([])
    # floored at 1 s: zeros don't blow up the log
    mu0, _ = fit_lognormal_waits([0, 0, 0])
    assert mu0 == 0.0


def test_jobs_wait_sampled_durations():
    sim = Simulation(seed=5)
    cluster = make(sim, mu=np.log(300), sigma=0.1)
    jobs = [BatchJob(cores=1, runtime=60, walltime=120) for _ in range(10)]
    for j in jobs:
        cluster.submit(j)
    sim.run()
    waits = [j.wait_time for j in jobs]
    assert all(150 < w < 600 for w in waits)  # ~lognormal(log 300, 0.1)
    assert len(set(waits)) == len(waits)  # i.i.d., not identical
    assert cluster.completed_jobs == 10


def test_capacity_never_blocks():
    sim = Simulation(seed=6)
    cluster = make(sim, mu=np.log(10), sigma=0.01)
    # 20 full-machine jobs all start ~simultaneously regardless of capacity
    jobs = [BatchJob(cores=32, runtime=1000, walltime=2000) for _ in range(20)]
    for j in jobs:
        cluster.submit(j)
    sim.run(until=100)
    assert all(j.state is JobState.RUNNING for j in jobs)


def test_cancel_paths():
    sim = Simulation(seed=7)
    cluster = make(sim, mu=np.log(500), sigma=0.01)
    pending = BatchJob(cores=1, runtime=60, walltime=120)
    running = BatchJob(cores=1, runtime=5000, walltime=6000)
    cluster.submit(pending)
    cluster.submit(running)
    sim.run(until=600)  # both started? no: cancel pending first
    # running job is RUNNING; cancel it
    assert running.state is JobState.RUNNING
    cluster.cancel(running)
    assert running.state is JobState.CANCELLED
    sim.run()
    assert pending.state is JobState.COMPLETED


def test_walltime_kill_still_applies():
    sim = Simulation(seed=8)
    cluster = make(sim, mu=np.log(10), sigma=0.01)
    job = BatchJob(cores=1, runtime=5000, walltime=100)
    cluster.submit(job)
    sim.run()
    assert job.state is JobState.TIMEOUT


@pytest.mark.parametrize("abort", ["kill_job", "set_offline"])
def test_resource_failure_fails_running_job(abort):
    """Killing a running job (or an outage) ends it FAILED, takes it off
    the running set, and cancels its end event."""
    sim = Simulation(seed=9)
    cluster = make(sim, mu=np.log(10), sigma=0.01)
    job = BatchJob(cores=1, runtime=500, walltime=1000)
    cluster.submit(job)
    sim.run(until=100)
    assert job.state is JobState.RUNNING
    if abort == "kill_job":
        cluster.kill_job(job)
    else:
        cluster.set_offline(50.0)
    assert job.state is JobState.FAILED
    assert job.end_time == 100
    assert cluster.running_jobs() == []
    sim.run()
    # the cancelled end event never fires: no COMPLETED transition
    assert job.state is JobState.FAILED
    assert cluster.completed_jobs == 0


def test_started_and_cancelled_jobs_leave_no_queue_state():
    sim = Simulation(seed=10)
    cluster = make(sim, mu=np.log(100), sigma=0.01)
    started = BatchJob(cores=1, runtime=10, walltime=20)
    dropped = BatchJob(cores=1, runtime=10, walltime=20)
    cluster.submit(started)
    cluster.submit(dropped)
    sim.run(until=1)
    cluster.cancel(dropped)
    sim.run()
    assert started.state is JobState.COMPLETED
    assert dropped.state is JobState.CANCELLED
    assert cluster.pending_jobs() == [] and cluster.running_jobs() == []
    assert cluster._arrival_order == {}
