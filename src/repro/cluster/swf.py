"""Standard Workload Format (SWF) support: replay and export.

SWF is the format of the Parallel Workloads Archive (Feitelson), the
standard interchange for production batch traces. Supporting it lets the
simulator (a) replay real machine logs as background load instead of the
synthetic generator, and (b) export its own simulated jobs for analysis
with existing SWF tooling.

The 18 SWF fields are whitespace-separated; we consume the ones that
matter for scheduling — submit time (2), run time (4), requested
processors (8, falling back to allocated, field 5), requested time (9) —
and ignore the rest, as most archive tools do. Comment lines start with
``;``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..des import Simulation
from .job import BatchJob, JobState
from .machine import Cluster


@dataclass(frozen=True)
class SwfJob:
    """One parsed SWF record (the scheduling-relevant subset)."""

    job_id: int
    submit_time: float
    run_time: float
    processors: int
    requested_time: float
    user: str


class SwfError(ValueError):
    """Raised on malformed SWF content."""


def parse_swf(lines: Iterable[str]) -> List[SwfJob]:
    """Parse SWF text into job records (skips comments and bad jobs).

    Jobs with unknown (negative) runtime or processor counts are dropped,
    as is conventional when replaying archive traces.
    """
    jobs: List[SwfJob] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 11:
            raise SwfError(f"line {lineno}: expected >= 11 fields, got "
                           f"{len(fields)}")
        try:
            job_id = int(fields[0])
            submit = float(fields[1])
            run_time = float(fields[3])
            allocated = int(fields[4])
            requested = int(fields[7])
            requested_time = float(fields[8])
            user = fields[11] if len(fields) > 11 else "0"
        except ValueError as exc:
            raise SwfError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, (submit, run_time, requested_time))):
            raise SwfError(f"line {lineno}: non-finite time field")
        processors = requested if requested > 0 else allocated
        if run_time <= 0 or processors <= 0:
            continue  # cancelled/failed-before-start records
        if requested_time <= 0:
            requested_time = run_time
        jobs.append(
            SwfJob(
                job_id=job_id,
                submit_time=max(0.0, submit),
                run_time=run_time,
                processors=processors,
                requested_time=max(requested_time, run_time * 0.1, 60.0),
                user=f"swf{user}",
            )
        )
    return jobs


def parse_swf_file(path: str) -> List[SwfJob]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_swf(fh)


class SwfReplay:
    """Submit an SWF trace to a simulated cluster as background load."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        jobs: Iterable[SwfJob],
        time_scale: float = 1.0,
        max_cores: Optional[int] = None,
    ) -> None:
        """``time_scale`` compresses submit times (0.5 = twice as fast);
        jobs wider than ``max_cores`` (default: the machine) are clipped."""
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.sim = sim
        self.cluster = cluster
        self.time_scale = time_scale
        self.cap = max_cores or cluster.total_cores
        self.jobs = sorted(jobs, key=lambda j: j.submit_time)
        self.submitted = 0

    def start(self) -> int:
        """Schedule every submission; returns the number of jobs queued."""
        if self.sim.now != 0:
            raise RuntimeError("start() must be called at simulated time 0")
        for record in self.jobs:
            batch = BatchJob(
                cores=min(record.processors, self.cap),
                runtime=record.run_time,
                walltime=record.requested_time,
                user=record.user,
                name=f"swf.{record.job_id}",
                kind="background",
            )
            self.sim.call_at(
                record.submit_time * self.time_scale,
                self.cluster.submit,
                batch,
            )
            self.submitted += 1
        return self.submitted


def export_swf(jobs: Iterable[BatchJob]) -> str:
    """Render finished simulated jobs as SWF text (for archive tooling)."""
    lines = [
        "; SWF export from the repro simulated substrate",
        "; fields: id submit wait run procs avgcpu mem reqprocs reqtime "
        "reqmem status user group app queue partition prev think",
    ]
    for i, job in enumerate(
        (j for j in jobs if j.start_time is not None and j.end_time is not None),
        start=1,
    ):
        wait = job.start_time - (job.submit_time or 0.0)
        run = job.end_time - job.start_time
        status = 1 if job.state is JobState.COMPLETED else 0
        lines.append(
            f"{i} {job.submit_time:.0f} {wait:.0f} {run:.0f} "
            f"{job.cores} -1 -1 {job.cores} {job.walltime:.0f} -1 "
            f"{status} {job.user} 1 1 1 1 -1 -1"
        )
    return "\n".join(lines) + "\n"
