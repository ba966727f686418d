"""On a host with at least four cores, an mp(4) planner sweep beats the
serial one on the wall clock, cold-start cost and all.

The grid is sized so the serial sweep takes whole seconds: big enough
for a four-worker pool's fork and trace cost to amortize, small enough
for one test. With fewer cores the comparison means nothing (mp
legitimately loses without cores to spread over), so the test skips and
says how many cores the host has.
"""

import os
import time

import pytest

from repro.core import DeploymentPlanner
from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.core.spec import Scenario
from repro.hardware.instances import instance_by_name

CORES = os.cpu_count() or 1


def sweep_wall_s(backend: str) -> float:
    """Wall time of one cold sweep of the grid on ``backend``."""
    planner = DeploymentPlanner(
        runner=ExperimentRunner(registry=AssetRegistry(), seed=1234),
        duration_s=30.0,
        max_replicas=4,
        shard_counts=(1, 2),
        backend=backend,
    )
    instances = [instance_by_name(name) for name in ("CPU", "GPU-T4")]
    started = time.perf_counter()
    planner.plan(Scenario("smoke", 50_000, 150), ["gru4rec", "narm"], instances=instances)
    return time.perf_counter() - started


@pytest.mark.skipif(
    CORES < 4, reason=f"needs at least 4 cores; this host has {CORES}"
)
def test_mp4_sweep_beats_serial_wall_clock():
    serial_s = sweep_wall_s("serial")
    mp4_s = sweep_wall_s("mp:workers=4")
    assert mp4_s < serial_s, f"mp(4) {mp4_s:.2f} s vs serial {serial_s:.2f} s"
