"""Background-job draws are bit-identical to the ``rng.choice`` formulation.

``_LiveDraws.job`` replaces ``rng.choice(choices, p=weights)`` with a
precomputed CDF and ``np.clip`` with a scalar clamp. These tests pin the
whole draw stream against a reference built on the numpy calls: every
value must match exactly, and the generators must end in the same
state, so a draw that consumes a different number of doubles fails even
when the values it returns happen to agree.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BackgroundWorkload, Cluster, WorkloadProfile
from repro.cluster.presets import PRESETS
from repro.cluster.workload import _LiveDraws
from repro.des import Simulation

SEEDS = (0, 1, 7, 2016, 987654321)


class _ChoiceDraws:
    """Reference: the historical numpy formulation of the job draw."""

    def __init__(self, rng, profile, max_cores):
        self.rng = rng
        self.profile = profile
        self.max_cores = max_cores
        self._choices = np.asarray(profile.core_choices)
        self._weights = np.asarray(profile.core_weights)

    def job(self):
        rng = self.rng
        p = self.profile
        cores = int(rng.choice(self._choices, p=self._weights))
        if cores > self.max_cores:
            cores = self.max_cores
        runtime = float(
            np.clip(
                rng.lognormal(p.runtime_log_mean, p.runtime_log_sigma),
                p.runtime_min,
                p.runtime_max,
            )
        )
        if rng.random() < p.sloppy_request_fraction:
            walltime = p.walltime_limit
        else:
            factor = rng.uniform(p.overestimate_min, p.overestimate_max)
            walltime = min(runtime * factor, p.walltime_limit)
        if walltime < 60.0:
            walltime = 60.0
        user = int(rng.integers(p.n_users))
        return cores, runtime, walltime, user

    def residual(self):
        return float(self.rng.uniform(0.25, 1.0))

    def gap(self, scale):
        return float(self.rng.exponential(scale))

    def accept(self):
        return float(self.rng.random())


def _script(draws, n=400):
    """Jobs interleaved with the arrival/prime draws, as a workload does."""
    out = []
    for i in range(n):
        out.append(("j", draws.job()))
        if i % 3 == 0:
            out.append(("g", draws.gap(37.5)))
        if i % 5 == 1:
            out.append(("a", draws.accept()))
        if i % 7 == 2:
            out.append(("r", draws.residual()))
    return out


def _assert_same_stream(profile, seed, max_cores, n=400):
    live_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    live = _script(_LiveDraws(live_rng, profile, max_cores), n)
    ref = _script(_ChoiceDraws(ref_rng, profile, max_cores), n)
    assert live == ref
    # Exact types too: a numpy scalar leaking into a BatchJob would
    # change its repr and every digest that serializes it.
    for (_, a), (_, b) in zip(live, ref):
        assert type(a) is type(b)
        if isinstance(a, tuple):
            assert [type(x) for x in a] == [type(x) for x in b]
    assert live_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_preset_draws_match_rng_choice(preset, seed):
    p = PRESETS[preset]
    _assert_same_stream(p.profile, seed, p.total_cores)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("max_cores", [1, 100, 512])
def test_capacity_clamp_matches(preset, max_cores):
    """max_cores below the largest core choice clamps identically."""
    profile = PRESETS[preset].profile
    assert max_cores < max(profile.core_choices)
    _assert_same_stream(profile, 2016, max_cores)


@pytest.mark.parametrize(
    "weights",
    [
        (0.0, 0.3, 0.7),  # leading zero-weight choice is never drawn
        (0.5, 0.5, 0.0),  # trailing zero weight: searchsorted edge
        (0.25, 0.0, 0.75),
        (1.0, 0.0, 0.0),
        (0.1, 0.2, 0.7 - 1e-9),  # inside choice()'s sum tolerance
    ],
)
def test_zero_and_unnormalized_weights_match(weights):
    profile = WorkloadProfile(core_choices=(1, 8, 64), core_weights=weights)
    for seed in SEEDS:
        _assert_same_stream(profile, seed, 1024, n=200)


def test_runtime_clamp_hits_both_bounds():
    """A wide lognormal exercises the lower and the upper clamp."""
    profile = WorkloadProfile(
        runtime_log_mean=math.log(3600.0),
        runtime_log_sigma=4.0,
        runtime_min=600.0,
        runtime_max=7200.0,
    )
    draws = _LiveDraws(np.random.default_rng(5), profile, 1024)
    runtimes = {draws.job()[1] for _ in range(300)}
    assert 600.0 in runtimes and 7200.0 in runtimes
    _assert_same_stream(profile, 5, 1024, n=300)


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12
    ).filter(lambda ws: sum(ws) > 0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_arbitrary_weights_match(raw, seed):
    total = math.fsum(raw)
    weights = tuple(w / total for w in raw)
    profile = WorkloadProfile(
        core_choices=tuple(2**i for i in range(len(weights))),
        core_weights=weights,
    )
    _assert_same_stream(profile, seed, 256, n=60)


def test_workload_jobs_match_reference():
    """End to end: make_job on the kernel stream equals the reference."""
    sim = Simulation(seed=42)
    cluster = Cluster(sim, "draws", nodes=8, cores_per_node=16)
    profile = PRESETS["stampede-sim"].profile
    wl = BackgroundWorkload(sim, cluster, profile)
    ref = _ChoiceDraws(
        Simulation(seed=42).rng.get("workload/draws"), profile, 128
    )
    for _ in range(300):
        job = wl.make_job()
        cores, runtime, walltime, user = ref.job()
        assert (job.cores, job.runtime, job.walltime, job.user) == (
            cores, runtime, walltime, f"bg{user:02d}",
        )
