"""Construction-time validation of pilot and unit descriptions."""

import math

import numpy as np
import pytest

from repro.pilot import ComputePilotDescription, ComputeUnitDescription


@pytest.mark.parametrize("cores", [1.5, 2.0, "2", 0, -1])
def test_unit_rejects_bad_cores(cores):
    with pytest.raises(ValueError, match="cores"):
        ComputeUnitDescription(name="u", duration_s=1.0, cores=cores)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
def test_unit_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match="duration"):
        ComputeUnitDescription(name="u", duration_s=duration)


@pytest.mark.parametrize("cores", [1.5, 4.0, 0])
def test_pilot_rejects_bad_cores(cores):
    with pytest.raises(ValueError, match="cores"):
        ComputePilotDescription(resource="r", cores=cores, runtime_min=10)


@pytest.mark.parametrize("runtime", [math.nan, math.inf, 0.0])
def test_pilot_rejects_bad_runtime(runtime):
    with pytest.raises(ValueError, match="runtime"):
        ComputePilotDescription(resource="r", cores=1, runtime_min=runtime)


def test_integral_values_accepted():
    unit = ComputeUnitDescription(
        name="u", duration_s=np.float64(0.0), cores=np.int64(2)
    )
    assert unit.cores == 2
    pilot = ComputePilotDescription(resource="r", cores=np.int32(8), runtime_min=1.5)
    assert pilot.runtime_s == 90.0
