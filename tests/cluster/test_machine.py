"""Integration tests for the Cluster facade on the DES kernel."""

import pytest

from repro.cluster import (
    BatchJob,
    Cluster,
    FcfsScheduler,
    JobState,
    SubmissionError,
)
from repro.des import Simulation


def make_cluster(sim, nodes=2, cpn=8, scheduler=None, overhead=0.0, priority_fn=None):
    return Cluster(
        sim,
        "test-cluster",
        nodes=nodes,
        cores_per_node=cpn,
        scheduler=scheduler,
        submit_overhead=overhead,
        priority_fn=priority_fn,
    )


def test_idle_machine_runs_job_immediately():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=4, runtime=100, walltime=200)
    cluster.submit(job)
    sim.run()
    assert job.state is JobState.COMPLETED
    assert job.submit_time == 0.0
    assert job.start_time == 0.0
    assert job.end_time == 100.0
    assert job.wait_time == 0.0
    assert cluster.completed_jobs == 1


def test_submit_overhead_delays_pending():
    sim = Simulation()
    cluster = make_cluster(sim, overhead=5.0)
    job = BatchJob(cores=1, runtime=10, walltime=20)
    cluster.submit(job)
    sim.run()
    assert job.submit_time == 5.0
    assert job.end_time == 15.0


def test_oversized_job_rejected():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    with pytest.raises(SubmissionError):
        cluster.submit(BatchJob(cores=9, runtime=10, walltime=10))


def test_double_submit_rejected():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=10, walltime=10)
    cluster.submit(job)
    sim.run()
    with pytest.raises(SubmissionError):
        cluster.submit(job)


def test_job_killed_at_walltime():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=500, walltime=100)
    cluster.submit(job)
    sim.run()
    assert job.state is JobState.TIMEOUT
    assert job.end_time == 100.0
    assert cluster.killed_jobs == 1


def test_queueing_when_machine_full():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    first = BatchJob(cores=8, runtime=100, walltime=100)
    second = BatchJob(cores=8, runtime=50, walltime=60)
    cluster.submit(first)
    cluster.submit(second)
    sim.run()
    assert second.start_time == 100.0
    assert second.wait_time == 100.0
    assert second.end_time == 150.0


def test_fcfs_convoy_vs_backfill():
    """A short narrow job bypasses a blocked wide head only with backfill."""

    def run(scheduler_cls):
        sim = Simulation()
        cluster = make_cluster(sim, nodes=2, cpn=8, scheduler=scheduler_cls())
        blocker = BatchJob(cores=8, runtime=100, walltime=100, name="blocker")
        wide = BatchJob(cores=16, runtime=10, walltime=10, name="wide")
        narrow = BatchJob(cores=2, runtime=20, walltime=20, name="narrow")
        cluster.submit(blocker)
        cluster.submit(wide)
        cluster.submit(narrow)
        sim.run()
        return narrow.start_time

    from repro.cluster import EasyBackfillScheduler

    assert run(FcfsScheduler) == 110.0  # waits for the wide job
    assert run(EasyBackfillScheduler) == 0.0  # backfills next to the blocker


def test_cancel_pending_job():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    blocker = BatchJob(cores=8, runtime=100, walltime=100)
    queued = BatchJob(cores=8, runtime=10, walltime=10)
    cluster.submit(blocker)
    cluster.submit(queued)
    sim.run(until=10)
    assert queued.state is JobState.PENDING
    cluster.cancel(queued)
    assert queued.state is JobState.CANCELLED
    sim.run()
    assert queued.start_time is None


def test_cancel_running_job_frees_cores():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    job = BatchJob(cores=8, runtime=1000, walltime=2000)
    follower = BatchJob(cores=8, runtime=10, walltime=20)
    cluster.submit(job)
    cluster.submit(follower)
    sim.run(until=50)
    cluster.cancel(job)
    sim.run()
    assert job.state is JobState.CANCELLED
    assert job.end_time == 50.0
    assert follower.state is JobState.COMPLETED
    assert follower.start_time == 50.0
    assert cluster.free_cores == 8


def test_cancel_before_enqueue():
    sim = Simulation()
    cluster = make_cluster(sim, overhead=10.0)
    job = BatchJob(cores=1, runtime=10, walltime=10)
    cluster.submit(job)
    cluster.cancel(job)  # still NEW
    sim.run()
    assert job.state is JobState.CANCELLED
    assert job.submit_time is None


def test_listener_sees_transitions():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=10, walltime=20)
    events = []
    cluster.add_listener(lambda j, old, new: events.append((j.uid, new)))
    cluster.submit(job)
    sim.run()
    assert events == [
        (job.uid, JobState.PENDING),
        (job.uid, JobState.RUNNING),
        (job.uid, JobState.COMPLETED),
    ]


def test_trace_records_batch_job_states():
    sim = Simulation()
    cluster = make_cluster(sim)
    job = BatchJob(cores=1, runtime=10, walltime=20)
    seen = []
    job.add_callback(lambda j, old, new: seen.append((old, new, sim.now)))
    cluster.submit(job)
    sim.run()
    assert seen == [
        (JobState.NEW, JobState.PENDING, 0.0),
        (JobState.PENDING, JobState.RUNNING, 0.0),
        (JobState.RUNNING, JobState.COMPLETED, 10.0),
    ]
    assert (job.submit_time, job.start_time, job.end_time) == (0.0, 0.0, 10.0)


def test_wait_history_populated():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    a = BatchJob(cores=8, runtime=100, walltime=100)
    b = BatchJob(cores=8, runtime=10, walltime=10)
    cluster.submit(a)
    cluster.submit(b)
    sim.run()
    waits = [w for _, w, _ in cluster.wait_history]
    assert waits == [0.0, 100.0]


def test_priority_fn_reorders_queue():
    sim = Simulation()
    # Give priority to the "vip" user.
    cluster = make_cluster(
        sim,
        nodes=1,
        cpn=8,
        priority_fn=lambda j, now: 10.0 if j.user == "vip" else 0.0,
    )
    blocker = BatchJob(cores=8, runtime=100, walltime=100)
    normal = BatchJob(cores=8, runtime=10, walltime=10, user="joe")
    vip = BatchJob(cores=8, runtime=10, walltime=10, user="vip")
    cluster.submit(blocker)
    sim.run(until=1)  # blocker is running before the contenders arrive
    cluster.submit(normal)
    cluster.submit(vip)
    sim.run()
    assert vip.start_time == 100.0
    assert normal.start_time == 110.0


def test_queue_metrics():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=8)
    cluster.submit(BatchJob(cores=8, runtime=100, walltime=100))
    cluster.submit(BatchJob(cores=4, runtime=50, walltime=60))
    sim.run(until=1)
    assert cluster.queue_length == 1
    assert cluster.queued_core_seconds == 4 * 60
    assert cluster.utilization == 1.0


def _queue_seen(cluster):
    return (
        cluster.queue_length,
        [j.uid for j in cluster.pending_jobs()],
        cluster.queue_composition(),
        cluster.queued_core_seconds,
    )


def _expected_view(jobs):
    kinds = {}
    for j in jobs:
        kinds[j.kind] = kinds.get(j.kind, 0) + 1
    return (
        len(jobs),
        [j.uid for j in jobs],
        kinds,
        sum(j.cores * j.walltime for j in jobs),
    )


def test_listeners_see_queue_shrink_one_pick_at_a_time():
    """One scheduler pass starts several jobs; at each RUNNING transition
    the queue views show exactly the jobs not started yet, as if every
    pick had left the queue the moment it started."""
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=4)
    jobs = [
        BatchJob(cores=1, runtime=10, walltime=10 + i,
                 kind="pilot" if i % 2 else "background")
        for i in range(7)
    ]
    seen = []

    def listener(job, old, new):
        if new is JobState.RUNNING:
            seen.append((job.uid, _queue_seen(cluster)))

    cluster.add_listener(listener)
    for job in jobs:
        cluster.submit(job)
    sim.run(until=1)
    assert [uid for uid, _ in seen] == [j.uid for j in jobs[:4]]
    for k, (_, view) in enumerate(seen):
        assert view == _expected_view(jobs[k + 1:])
    assert _queue_seen(cluster) == _expected_view(jobs[4:])


def test_listener_cancel_during_pass_keeps_queue_consistent():
    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=2)
    jobs = [BatchJob(cores=1, runtime=10, walltime=10) for _ in range(5)]
    seen = []

    def listener(job, old, new):
        if new is JobState.RUNNING:
            if job is jobs[0]:
                cluster.cancel(jobs[3])  # a queued job, not a pick
            seen.append(_queue_seen(cluster))

    cluster.add_listener(listener)
    for job in jobs:
        cluster.submit(job)
    sim.run(until=1)
    assert seen == [
        _expected_view([jobs[1], jobs[2], jobs[4]]),
        _expected_view([jobs[2], jobs[4]]),
    ]
    assert cluster.pending_jobs() == [jobs[2], jobs[4]]
    sim.run()
    assert [j.state for j in jobs] == [JobState.COMPLETED] * 3 + [
        JobState.CANCELLED, JobState.COMPLETED,
    ]


def test_scheduler_picking_twice_is_rejected():
    class Twice(FcfsScheduler):
        def select(self, view):
            picks = super().select(view)
            return picks + picks[:1]

    sim = Simulation()
    cluster = make_cluster(sim, nodes=1, cpn=4, scheduler=Twice())
    cluster.submit(BatchJob(cores=1, runtime=10, walltime=10))
    with pytest.raises(RuntimeError, match="twice"):
        sim.run()
