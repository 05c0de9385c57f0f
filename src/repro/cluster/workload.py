"""Synthetic background workloads for the simulated resources.

The paper's central observable — queue wait time ``Tw`` — is an emergent
property of production batch systems under shared load. We reproduce it
mechanistically: each resource runs a stochastic stream of background
jobs whose mix is modelled on published XSEDE workload statistics
(XDMoD; Feitelson's workload archive models):

* Poisson arrivals, optionally modulated by a diurnal cycle;
* core counts from a truncated log-uniform ("power-of-two-ish") mix with
  a heavy tail of large jobs — large jobs are what create convoys and
  heavy-tailed waits;
* runtimes lognormal, spanning minutes to many hours (the paper notes
  36% of 2014 XSEDE jobs ran 30 s – 30 min);
* requested walltimes overestimate runtimes by a user-dependent factor,
  which is what opens backfill holes.

The generator targets an *offered load* (utilization fraction) and derives
the arrival rate from the mean job size, so presets stay calibrated when
their size/runtime mixes change.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..des import Simulation
from .job import BatchJob
from .machine import Cluster


#: Generator.choice(p=)'s tolerance on the weight sum: sqrt(float64 eps).
_WEIGHT_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of a resource's background job mix."""

    #: target offered load as a fraction of total cores (>= ~0.9 produces
    #: persistent queues; > 1.0 produces growing queues).
    offered_load: float = 0.95

    #: candidate core counts and their probabilities.
    core_choices: Sequence[int] = (1, 4, 16, 32, 64, 128, 256, 512, 1024)
    core_weights: Sequence[float] = (
        0.28, 0.20, 0.16, 0.12, 0.09, 0.07, 0.045, 0.02, 0.015,
    )

    #: lognormal runtime parameters (of underlying normal), seconds.
    runtime_log_mean: float = math.log(1.5 * 3600.0)
    runtime_log_sigma: float = 1.1
    runtime_min: float = 60.0
    runtime_max: float = 24 * 3600.0

    #: walltime request = runtime * U(min, max) overestimation factor,
    #: clipped to the resource's queue limit.
    overestimate_min: float = 1.1
    overestimate_max: float = 3.0
    walltime_limit: float = 24 * 3600.0

    #: fraction of users who just request the queue's walltime limit.
    sloppy_request_fraction: float = 0.15

    #: diurnal arrival-rate modulation amplitude in [0, 1); 0 disables it.
    diurnal_amplitude: float = 0.3
    diurnal_period: float = 24 * 3600.0

    #: distinct background user accounts (for fairshare experiments).
    n_users: int = 24

    def __post_init__(self) -> None:
        if not (0 < self.offered_load):
            raise ValueError("offered_load must be positive")
        if len(self.core_choices) != len(self.core_weights):
            raise ValueError("core_choices and core_weights length mismatch")
        # The same two checks Generator.choice(p=) applies, so a profile
        # the draws would reject is rejected up front.
        if any(w < 0 for w in self.core_weights):
            raise ValueError("core_weights must be non-negative")
        total = math.fsum(self.core_weights)
        if not abs(total - 1.0) <= _WEIGHT_SUM_ATOL:
            raise ValueError(f"core_weights must sum to 1, got {total}")
        if not (0 <= self.diurnal_amplitude < 1):
            raise ValueError("diurnal_amplitude must be in [0, 1)")

    @property
    def mean_cores(self) -> float:
        return float(
            np.dot(np.asarray(self.core_choices), np.asarray(self.core_weights))
        )

    @property
    def mean_runtime(self) -> float:
        """Exact mean of the *clipped* lognormal runtime.

        Jobs are sampled lognormal and clipped into
        ``[runtime_min, runtime_max]``, so the mean is::

            E = a*P(X<a) + b*P(X>b) + E[X; a<=X<=b]

        with the partial expectation of a lognormal
        ``E[X; X<=k] = exp(mu + s^2/2) * Phi((ln k - mu - s^2)/s)``.
        Getting this right matters: the arrival rate is derived from it,
        and a few percent of bias in mean work per job compounds into a
        materially different offered load on long-tailed mixes.
        """
        mu, s = self.runtime_log_mean, self.runtime_log_sigma
        a, b = self.runtime_min, self.runtime_max
        if s == 0:
            return float(min(max(math.exp(mu), a), b))

        def phi(x: float) -> float:
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        ln_a, ln_b = math.log(a), math.log(b)
        p_below = phi((ln_a - mu) / s)
        p_above = 1.0 - phi((ln_b - mu) / s)
        untruncated = math.exp(mu + s * s / 2.0)
        partial = untruncated * (
            phi((ln_b - mu - s * s) / s) - phi((ln_a - mu - s * s) / s)
        )
        return float(a * p_below + b * p_above + partial)


class _LiveDraws:
    """Semantic workload draws straight from a numpy generator.

    :meth:`job` must consume the generator exactly as
    ``rng.choice(choices, p=weights)`` + ``np.clip`` would — same draws,
    same order (core draw, lognormal, random, [uniform], integers), same
    values — without ``choice``'s per-call weight validation and CDF
    rebuild (see "Background draws" in docs/INTERNALS.md).
    """

    __slots__ = ("rng", "profile", "_choices", "_cdf")

    def __init__(
        self,
        rng: np.random.Generator,
        profile: WorkloadProfile,
        max_cores: int,
    ) -> None:
        self.rng = rng
        self.profile = profile
        # Generator.choice(p=) draws one rng.random() and maps it through
        # the normalized cumulative weights (cumsum, divided by the last
        # element) with searchsorted(side="right"). Building that CDF once
        # and bisecting it (the same "<=" search over the same doubles)
        # yields the identical index from the identical single draw.
        cdf = np.cumsum(np.asarray(profile.core_weights, dtype=np.float64))
        cdf /= cdf[-1]
        self._cdf: List[float] = cdf.tolist()
        self._choices = [min(int(c), max_cores) for c in profile.core_choices]

    def job(self) -> Tuple[int, float, float, int]:
        """One job draw: (cores, runtime, walltime, user index)."""
        rng = self.rng
        p = self.profile
        cores = self._choices[bisect_right(self._cdf, rng.random())]
        runtime = rng.lognormal(p.runtime_log_mean, p.runtime_log_sigma)
        # np.clip(x, lo, hi) == min(max(x, lo), hi), scalar edition.
        if runtime < p.runtime_min:
            runtime = p.runtime_min
        if runtime > p.runtime_max:
            runtime = p.runtime_max
        runtime = float(runtime)
        if rng.random() < p.sloppy_request_fraction:
            walltime = p.walltime_limit
        else:
            factor = rng.uniform(p.overestimate_min, p.overestimate_max)
            walltime = min(runtime * factor, p.walltime_limit)
        if walltime < 60.0:
            walltime = 60.0
        user = int(rng.integers(p.n_users))
        return cores, runtime, walltime, user

    def residual(self) -> float:
        """Residual-life factor for a prime() fill job."""
        return float(self.rng.uniform(0.25, 1.0))

    def gap(self, scale: float) -> float:
        """Exponential arrival gap with mean ``scale`` seconds."""
        return float(self.rng.exponential(scale))

    def accept(self) -> float:
        """Thinning acceptance draw in [0, 1)."""
        return float(self.rng.random())


class BackgroundWorkload:
    """Generates and submits background jobs to one cluster."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        profile: WorkloadProfile,
        stream: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.profile = profile
        self.max_cores = cluster.total_cores
        self.rng = stream if stream is not None else sim.rng.get(
            f"workload/{cluster.name}"
        )
        self.submitted = 0
        self._stopped = False
        # Interned user labels: one f-string format per account, not one
        # per sampled job.
        self._user_labels = [f"bg{i:02d}" for i in range(profile.n_users)]
        self._draws = _LiveDraws(self.rng, profile, self.max_cores)
        # Arrival rate so that E[cores * runtime] * lambda = load * capacity.
        work_per_job = profile.mean_cores * profile.mean_runtime
        self.base_rate = (
            profile.offered_load * cluster.total_cores / work_per_job
        )

    # -- job synthesis ----------------------------------------------------------

    def make_job(self) -> BatchJob:
        """Sample one background job from the profile.

        All randomness flows through ``self._draws``. Walltime may
        undercut runtime when runtime is near the queue limit; such jobs
        get killed at the limit, as on real systems.
        """
        cores, runtime, walltime, user = self._draws.job()
        return BatchJob(
            cores=cores,
            runtime=runtime,
            walltime=walltime,
            user=self._user_labels[user],
            kind="background",
        )

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (jobs/s) with diurnal modulation."""
        p = self.profile
        if p.diurnal_amplitude == 0:
            return self.base_rate
        phase = 2 * math.pi * (t % p.diurnal_period) / p.diurnal_period
        return self.base_rate * (1 + p.diurnal_amplitude * math.sin(phase))

    # -- driving processes -------------------------------------------------------

    def start(self) -> None:
        """Begin the arrival process (runs until stop() or end of sim)."""
        self.sim.process(self._arrivals(), name=f"workload/{self.cluster.name}")

    def stop(self) -> None:
        self._stopped = True

    def _arrivals(self):
        # Thinning algorithm for the non-homogeneous Poisson process.
        rate_max = self.base_rate * (1 + self.profile.diurnal_amplitude)
        scale = 1.0 / rate_max
        while not self._stopped:
            gap = self._draws.gap(scale)
            yield self.sim.timeout(gap)
            if self._stopped:
                return
            if self._draws.accept() <= self.rate_at(self.sim.now) / rate_max:
                self.cluster.submit(self.make_job())
                self.submitted += 1

    def prime(
        self,
        fill_fraction: float = 1.0,
        backlog_hours: float = 1.0,
    ) -> int:
        """Pre-load the resource as if the workload had been running.

        Two phases model a machine in steady state at t=0:

        1. *Residual-life fill*: jobs sampled from the profile, with their
           remaining runtime scaled by a uniform residual factor (they are
           "already partway through"), until ``fill_fraction`` of the cores
           is spoken for. These start immediately on the empty machine.
        2. *Backlog*: whole jobs totalling ``backlog_hours`` of machine
           capacity in core-hours are queued behind the fill. This directly
           controls the initial queue depth, which is the main knob for the
           queue waits new arrivals (e.g. pilots) experience.

        Returns the number of jobs injected. Must be called at simulated
        time 0, before ``start()``.
        """
        if self.sim.now != 0:
            raise RuntimeError("prime() must be called at simulated time 0")
        if not (0 <= fill_fraction <= 1):
            raise ValueError("fill_fraction must be in [0, 1]")
        injected = 0
        capacity = self.cluster.total_cores

        # Phase 1: fill the machine with partially-elapsed jobs.
        planned = 0
        misses = 0
        while planned < fill_fraction * capacity and misses < 64:
            job = self.make_job()
            if planned + job.cores > capacity:
                misses += 1
                continue
            job.runtime = max(60.0, job.runtime * self._draws.residual())
            self.cluster.submit(job)
            planned += job.cores
            injected += 1

        # Phase 2: queue a backlog of whole jobs.
        target_work = backlog_hours * 3600.0 * capacity
        queued_work = 0.0
        while queued_work < target_work:
            job = self.make_job()
            self.cluster.submit(job)
            queued_work += job.cores * job.runtime
            injected += 1
        return injected
