"""The simulated HPC resource: queue + node pool + batch scheduler.

A :class:`Cluster` accepts :class:`~repro.cluster.job.BatchJob`
submissions, keeps them in a priority-ordered pending queue, and asks its
scheduling policy which to start whenever the state changes (a submission
arrives or a job ends). Started jobs hold node cores until they complete
or hit their walltime limit.

Every transition updates the job's own state and times and is handed to
the registered transition listeners; completed-job wait times are kept in
a history ring that the Bundle layer uses for its predictive interface.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..des import Simulation
from ..telemetry.metrics import Counter, Histogram
from .job import BatchJob, JobState
from .nodes import NodePool
from .schedulers import (
    BatchScheduler,
    EasyBackfillScheduler,
    RunningSet,
    SchedulerView,
)
from .schedulers.base import PriorityFn

class SubmissionError(Exception):
    """Raised when a job can never run on this resource."""


#: Bucket boundaries for the scheduler-pass-length histogram (pending
#: jobs examined per pass); shared so every cluster observes into the
#: same instrument without a boundary conflict.
SCHEDULER_PASS_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


class Cluster:
    """A space-shared HPC resource driven by the simulation kernel."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        nodes: int,
        cores_per_node: int,
        scheduler: Optional[BatchScheduler] = None,
        priority_fn: Optional[PriorityFn] = None,
        submit_overhead: float = 1.0,
        dispatch_interval: float = 0.0,
        wait_history_size: int = 512,
    ) -> None:
        self.sim = sim
        self.name = name
        self.pool = NodePool(nodes, cores_per_node)
        self.scheduler = scheduler or EasyBackfillScheduler()
        self.priority_fn = priority_fn
        self.submit_overhead = float(submit_overhead)
        #: minimum seconds between scheduler passes. Production resource
        #: managers schedule in periodic cycles (tens of seconds to a few
        #: minutes); 0 restores pure event-driven dispatch.
        self.dispatch_interval = float(dispatch_interval)
        self._last_dispatch = -float("inf")

        self._pending: List[BatchJob] = []
        #: picks of the scheduler pass in progress that have started but
        #: still sit in ``_pending`` (see _run_picks); 0 between passes.
        self._started_in_pass = 0
        self._arrival_order: Dict[int, int] = {}
        self._arrival_seq = 0
        #: the only record of the running jobs, end-sorted; the
        #: scheduler view hands it to the policy as is.
        self._running = RunningSet()
        self._dispatch_scheduled = False
        #: (track, pass counter, pass-length histogram), bound at the
        #: first telemetered pass: binding creates the instruments, and a
        #: cluster that never runs a pass must add nothing to the metrics
        #: snapshot the telemetry digest hashes.
        self._pass_instruments: Optional[Tuple[str, Counter, Histogram]] = None
        self._offline_until: float = -float("inf")
        self._listeners: List[Callable[[BatchJob, JobState, JobState], None]] = []
        # Tuple snapshot iterated on the (hot) transition path; rebuilt
        # whenever a listener registers so mid-iteration registration
        # cannot perturb an in-flight transition.
        self._listener_snapshot: tuple = ()

        #: (finish_time, wait_seconds, cores) of recently started jobs.
        self.wait_history: Deque[Tuple[float, float, int]] = deque(
            maxlen=wait_history_size
        )
        self.completed_jobs = 0
        self.killed_jobs = 0

    # -- public interface ------------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.pool.total_cores

    @property
    def free_cores(self) -> int:
        return self.pool.free_cores

    @property
    def utilization(self) -> float:
        return self.pool.utilization

    @property
    def queue_length(self) -> int:
        return len(self._pending) - self._started_in_pass

    @property
    def queued_core_seconds(self) -> float:
        """Work (cores x requested walltime) waiting in the queue."""
        return sum(j.cores * j.walltime for j in self._queued())

    def queue_composition(self) -> Dict[str, int]:
        """Pending jobs by kind ("background", "pilot", ...).

        Part of the bundle's resource information: "queue state, queue
        composition, and types of jobs already scheduled for execution".
        """
        out: Dict[str, int] = {}
        for job in self._queued():
            out[job.kind] = out.get(job.kind, 0) + 1
        return out

    def pending_jobs(self) -> List[BatchJob]:
        return list(self._queued())

    def running_jobs(self) -> List[BatchJob]:
        return list(self._running)

    def add_listener(
        self, fn: Callable[[BatchJob, JobState, JobState], None]
    ) -> None:
        """Observe every job state transition on this resource."""
        self._listeners.append(fn)
        self._listener_snapshot = tuple(self._listeners)

    def submit(self, job: BatchJob) -> BatchJob:
        """Queue ``job``; it becomes PENDING after the submit overhead."""
        if job.state is not JobState.NEW:
            raise SubmissionError(f"{job.name} already submitted ({job.state})")
        if job.cores > self.pool.total_cores:
            raise SubmissionError(
                f"{job.name} requests {job.cores} cores; {self.name} has "
                f"{self.pool.total_cores}"
            )
        self.sim.call_in(self.submit_overhead, self._enqueue, job)
        return job

    def cancel(self, job: BatchJob) -> None:
        """Remove a pending job or kill a running one."""
        if job.state is JobState.PENDING:
            self._pending.remove(job)
            self._arrival_order.pop(job.uid, None)
            self._transition(job, JobState.CANCELLED)
        elif job.state is JobState.RUNNING:
            self._take_off(job, JobState.CANCELLED)
            self._schedule_dispatch()
        elif job.state is JobState.NEW:
            self._transition(job, JobState.CANCELLED)
        # cancelling a final job is a no-op

    def kill_job(self, job: BatchJob) -> None:
        """Abort one job as a *resource* failure (node crash, OOM kill).

        Unlike :meth:`cancel`, the job ends FAILED — the state the SAGA
        layer maps to a pilot death, which is what the fault injector
        needs to kill a pilot mid-run. Killing a final job is a no-op.
        """
        if job.state is JobState.PENDING:
            self._pending.remove(job)
            self._arrival_order.pop(job.uid, None)
            self._transition(job, JobState.FAILED)
        elif job.state is JobState.RUNNING:
            self.killed_jobs += 1
            self._take_off(job, JobState.FAILED)
            self._schedule_dispatch()
        elif job.state is JobState.NEW:
            self._transition(job, JobState.FAILED)
        # killing a final job is a no-op

    @property
    def is_offline(self) -> bool:
        return self.sim.now < self._offline_until

    def set_offline(self, duration: float) -> None:
        """Inject an outage: kill every running job, freeze dispatch.

        Running jobs fail immediately (as in an unplanned node or
        filesystem outage); queued jobs survive and dispatch resumes
        ``duration`` seconds from now. Repeated calls extend the outage.
        """
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        self._offline_until = max(
            self._offline_until, self.sim.now + duration
        )
        for job in list(self._running):
            self._take_off(job, JobState.FAILED)
        self.sim.call_at(self._offline_until, self._back_online)

    def _back_online(self) -> None:
        if self.is_offline:
            return  # a later outage extended the window
        self._schedule_dispatch()

    def expected_drain_time(self) -> float:
        """Crude bound: when would the machine be empty if nothing arrived."""
        entries = self._running.entries
        return entries[-1][0] if entries else self.sim.now

    # -- internal machinery ----------------------------------------------------

    def _enqueue(self, job: BatchJob) -> None:
        if job.state in (JobState.CANCELLED, JobState.FAILED):
            return  # cancelled/killed during the submit overhead window
        job.submit_time = self.sim._now  # property bypass on the hot path
        self._arrival_order[job.uid] = self._arrival_seq
        self._arrival_seq += 1
        # Appending keeps the FIFO queue sorted by construction (removals
        # preserve relative order), so plain arrival-ordered queues never
        # sort. Priority queues re-sort at dispatch time anyway, because
        # their keys are time-dependent — sorting here too would be wasted.
        self._pending.append(job)
        self._transition(job, JobState.PENDING)
        self._schedule_dispatch()

    def _sort_pending(self) -> None:
        """Order the queue by the (time-dependent) priority function.

        Only called from :meth:`_dispatch` when ``priority_fn`` is set;
        FIFO queues are kept in arrival order incrementally.
        """
        now = self.sim.now
        fn = self.priority_fn
        order = self._arrival_order
        self._pending.sort(key=lambda j: (-fn(j, now), order[j.uid]))

    def _schedule_dispatch(self) -> None:
        """Coalesce dispatches: one scheduler pass per cycle at most."""
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            now = self.sim._now
            floor = self._last_dispatch + self.dispatch_interval
            at = floor if floor > now else now
            # priority=1 so all same-instant submissions/completions land first
            self.sim.call_at(at, self._dispatch, priority=1)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self.is_offline:
            return  # _back_online re-arms dispatching
        now = self.sim._now
        self._last_dispatch = now
        if not self._pending:
            return
        if self.priority_fn is not None:
            self._sort_pending()
        # The view aliases live queue state (see SchedulerView): select
        # completes before _run_picks mutates anything, so no copies.
        view = SchedulerView(now, self.pool.free_cores, self._pending, self._running)
        tel = self.sim.telemetry
        if not tel.enabled:
            # Fast path: no span bookkeeping, no pass metrics. This is
            # the configuration campaigns run in, and the span/metric
            # plumbing costs as much as a small scheduler pass.
            self._run_picks(self.scheduler.select(view))
            return
        instruments = self._pass_instruments
        if instruments is None:
            instruments = self._pass_instruments = (
                f"cluster/{self.name}",
                tel.metrics.counter("cluster.scheduler-passes"),
                tel.metrics.histogram(
                    "cluster.scheduler-pass-length", SCHEDULER_PASS_BUCKETS
                ),
            )
        track, passes, pass_length = instruments
        with tel.span(
            "cluster",
            "scheduler-pass",
            track=track,
            policy=self.scheduler.name,
            pending=len(self._pending),
            free_cores=self.pool.free_cores,
        ):
            self._run_picks(self.scheduler.select(view))
        passes.inc()
        pass_length.observe(len(view.pending))

    def _queued(self) -> List[BatchJob]:
        """The pending queue without the current pass's started picks.

        Exactly the queue a per-pick removal would have left, so a
        transition listener observes the same queue either way.
        """
        if self._started_in_pass:
            order = self._arrival_order
            return [j for j in self._pending if j.uid in order]
        return self._pending

    def _run_picks(self, picks: List[BatchJob]) -> None:
        if not picks:
            return
        seen = set()
        try:
            for job in picks:
                if job.uid in seen:
                    raise RuntimeError(
                        f"scheduler {self.scheduler.name} picked {job.name} twice"
                    )
                seen.add(job.uid)
                self._start(job)
        finally:
            # One order-preserving filter per pass instead of one
            # O(queue) list.remove (a BatchJob.__eq__ per job ahead of
            # the pick) per started job. _start drops each pick from the
            # arrival-order keys, which mirror the queue's pending jobs.
            if self._started_in_pass:
                self._pending[:] = self._queued()
                self._started_in_pass = 0

    def _start(self, job: BatchJob) -> None:
        # The arrival-order dict keys mirror the pending queue exactly,
        # so membership is O(1) instead of an O(queue) scan. The job
        # leaves _pending itself at the end of the pass (_run_picks).
        if job.uid not in self._arrival_order:
            raise RuntimeError(f"scheduler picked non-pending job {job.name}")
        del self._arrival_order[job.uid]
        self._started_in_pass += 1
        self.pool.allocate(job.uid, job.cores)
        self._launch(job)

    def _launch(self, job: BatchJob) -> None:
        """Run ``job`` now: schedule its end and add it to the running set."""
        now = self.sim._now
        job.start_time = now
        runtime = job.runtime
        walltime = job.walltime
        timed_out = runtime > walltime
        duration = walltime if timed_out else runtime
        end_event = self.sim.call_in(duration, self._finish, job, timed_out)
        self._running.add(job, now + walltime, end_event)
        self.wait_history.append(
            (now, now - (job.submit_time or 0.0), job.cores)
        )
        self._transition(job, JobState.RUNNING)

    def _finish(self, job: BatchJob, timed_out: bool) -> None:
        if timed_out:
            self.killed_jobs += 1
            self._take_off(job, JobState.TIMEOUT)
        else:
            self.completed_jobs += 1
            self._take_off(job, JobState.COMPLETED)
        self._schedule_dispatch()

    def _take_off(self, job: BatchJob, state: JobState) -> None:
        """Take a running job off the machine and end it in ``state``.

        Cancelling the end event is a no-op when the job ends on it.
        """
        self.sim.cancel(self._running.remove(job.uid))
        self._free(job.uid)
        job.end_time = self.sim._now
        self._transition(job, state)

    def _free(self, uid: int) -> None:
        """Return the cores job ``uid`` holds to the node pool."""
        self.pool.free(uid)

    def _transition(self, job: BatchJob, new_state: JobState) -> None:
        old = job.state
        job.advance(new_state)
        for fn in self._listener_snapshot:
            fn(job, old, new_state)
