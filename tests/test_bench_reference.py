"""The benchmark's frozen references hold in the unit suite.

bench/reference.json freezes the golden decay curves and the bytes of the
sampled-cli run's decay.csv; otherwise only a benchmark run checks them.
This runs one full-size pass of each of those two workloads at the
default seed, from bench/workloads.py loaded read-only, and checks every
operation of it."""

import pytest

from util import bench_workloads


@pytest.mark.parametrize(
    "name, operations",
    # the sampled CLI call is its CSV bytes plus one check per point
    [("GoldenCurves", 8 + 3), ("SampledCli", 1 + 3)],
    ids=["golden-curves", "sampled-cli"],
)
def test_frozen_reference_holds(name, operations, tmp_path):
    workloads = bench_workloads()
    wl = getattr(workloads, name)(workloads.DEFAULT_SEED, False, tmp_path)
    wl.setup()
    wl.prepare(workloads.load_reference())
    if name == "SampledCli":
        assert wl.frozen_csv is not None  # the bytes are compared, not skipped
    _, outs = wl.run_pass(1)
    assert wl.check(outs) == (operations, 0, [])
