"""Unit tests for the batch-job state model."""

import numpy as np
import pytest

from repro.cluster import BatchJob, IllegalTransition, JobState


def make_job(**kw):
    defaults = dict(cores=4, runtime=100.0, walltime=200.0)
    defaults.update(kw)
    return BatchJob(**defaults)


def test_defaults_and_validation():
    job = make_job()
    assert job.state is JobState.NEW
    assert job.name.startswith("job.")
    assert not job.is_final
    with pytest.raises(ValueError):
        make_job(cores=0)
    with pytest.raises(ValueError):
        make_job(runtime=-1)
    with pytest.raises(ValueError):
        make_job(walltime=0)


def test_rejects_fractional_cores_and_non_finite_times():
    for cores in (2.5, 2.0, "4", None):
        with pytest.raises(ValueError):
            make_job(cores=cores)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            make_job(runtime=bad)
        with pytest.raises(ValueError):
            make_job(walltime=bad)
    with pytest.raises(ValueError):
        BatchJob(cores=2.5, runtime=100.0, walltime=float("inf"))


def test_accepts_numpy_integer_cores():
    job = make_job(cores=np.int64(8), walltime=np.float64(600.0))
    assert job.cores == 8


def test_unique_uids():
    a, b = make_job(), make_job()
    assert a.uid != b.uid
    assert a != b
    assert a == a
    assert hash(a) == a.uid


def test_legal_lifecycle():
    job = make_job()
    job.advance(JobState.PENDING)
    job.advance(JobState.RUNNING)
    job.advance(JobState.COMPLETED)
    assert job.is_final


def test_timeout_path():
    job = make_job()
    job.advance(JobState.PENDING)
    job.advance(JobState.RUNNING)
    job.advance(JobState.TIMEOUT)
    assert job.is_final


def test_illegal_transitions_rejected():
    job = make_job()
    with pytest.raises(IllegalTransition):
        job.advance(JobState.RUNNING)  # NEW -> RUNNING skips PENDING
    job.advance(JobState.PENDING)
    with pytest.raises(IllegalTransition):
        job.advance(JobState.COMPLETED)  # PENDING -> COMPLETED skips RUNNING
    job.advance(JobState.RUNNING)
    job.advance(JobState.COMPLETED)
    with pytest.raises(IllegalTransition):
        job.advance(JobState.RUNNING)  # out of a final state


def test_callbacks_see_old_and_new():
    job = make_job()
    seen = []
    job.add_callback(lambda j, old, new: seen.append((old, new)))
    job.advance(JobState.PENDING)
    job.advance(JobState.CANCELLED)
    assert seen == [
        (JobState.NEW, JobState.PENDING),
        (JobState.PENDING, JobState.CANCELLED),
    ]


def test_wait_time():
    job = make_job()
    assert job.wait_time is None
    job.submit_time = 10.0
    assert job.wait_time is None
    job.start_time = 35.0
    assert job.wait_time == 25.0
