import pytest

import hostspeed
from workloads import WORKLOADS


def test_factor_is_one_at_reference_speed_and_halves_on_a_host_twice_as_slow():
    ref = hostspeed.REFERENCE_S
    mix = {"steps": 0.5, "format": 0.3, "blas": 0.2}
    assert hostspeed.host_factor([dict(ref)] * 3, mix) == pytest.approx(1.0)
    # a mean, not a median: one probe 3x slow and one at speed average 2x
    slow = {name: 3 * t for name, t in ref.items()}
    assert hostspeed.host_factor([slow, dict(ref)], mix) == pytest.approx(0.5)


def test_every_workload_mix_names_probe_parts_and_sums_to_one():
    for name, workload in WORKLOADS.items():
        assert set(workload.host_mix) <= set(hostspeed.PARTS), name
        assert sum(workload.host_mix.values()) == pytest.approx(1.0), name


def test_probe_times_every_part():
    times = hostspeed.probe()
    assert set(times) == set(hostspeed.PARTS)
    assert all(t > 0 for t in times.values())
