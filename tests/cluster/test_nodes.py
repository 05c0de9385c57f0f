"""Unit and property tests for the node pool's core accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AllocationError, NodePool


def test_construction_validation():
    with pytest.raises(ValueError):
        NodePool(0, 16)
    with pytest.raises(ValueError):
        NodePool(4, 0)


def test_basic_accounting():
    pool = NodePool(4, 16)
    assert pool.total_cores == 64
    assert pool.free_cores == 64
    assert pool.utilization == 0.0
    pool.allocate(1, 20)  # spans nodes: the pool is core-granular
    assert pool.free_cores == 44
    assert pool.used_cores == 20
    pool.free(1)
    assert pool.free_cores == 64


def test_over_allocation_rejected():
    pool = NodePool(2, 8)
    pool.allocate(1, 10)
    with pytest.raises(AllocationError):
        pool.allocate(2, 7)
    assert pool.free_cores == 6  # failed attempt must not leak cores
    with pytest.raises(AllocationError):
        pool.free(2)  # ... nor record a holding


def test_duplicate_key_rejected():
    pool = NodePool(2, 8)
    pool.allocate(1, 2)
    with pytest.raises(AllocationError):
        pool.allocate(1, 2)
    assert pool.free_cores == 14
    pool.free(1)
    assert pool.free_cores == 16


def test_free_unknown_key_rejected():
    pool = NodePool(2, 8)
    with pytest.raises(AllocationError):
        pool.free(99)
    pool.allocate(1, 3)
    pool.free(1)
    with pytest.raises(AllocationError):
        pool.free(1)  # a double free is an unknown key
    assert pool.free_cores == 16


def test_non_positive_cores_rejected():
    pool = NodePool(2, 8)
    for cores in (0, -1):
        with pytest.raises(ValueError):
            pool.allocate(1, cores)
    assert pool.free_cores == 16
    pool.allocate(1, 1)  # the rejected calls recorded nothing for key 1


def test_can_fit():
    pool = NodePool(2, 8)
    assert pool.can_fit(16)
    assert not pool.can_fit(17)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(1, 64), st.booleans(), st.integers(0, 63)),
        min_size=1,
        max_size=60,
    )
)
def test_conservation_property(ops):
    """Free + held cores always equals capacity; free never negative."""
    pool = NodePool(8, 8)
    live = {}
    key = 0
    for cores, do_free, pick in ops:
        if do_free and live:
            k = sorted(live)[pick % len(live)]
            pool.free(k)
            del live[k]
        elif cores <= pool.free_cores:
            key += 1
            pool.allocate(key, cores)
            live[key] = cores
        else:
            with pytest.raises(AllocationError):
                pool.allocate(key + 1, cores)
        assert 0 <= pool.free_cores <= pool.total_cores
        assert pool.free_cores + sum(live.values()) == pool.total_cores
