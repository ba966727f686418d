"""Golden digests of traced runs: every recorded span and the stage
breakdown, byte for byte.

Three short runs (a sharded, cached T4 fleet; one T4; one CPU) cover every
span site of the default, sharding and cache paths. Each stores the sha256
of ``trace_to_json(telemetry.trace)`` and of the JSON of
``stage_breakdown(...).to_dict()`` in ``trace_digests.json``. A change to
how spans are recorded or attributed must leave both digests unchanged.

After an intended change to what a run records, rewrite the digests from
the repository root with::

    PYTHONPATH=src python -c "import json; from tests.golden.test_trace_digests import digests; open('tests/golden/trace_digests.json', 'w').write(json.dumps(digests(), indent=2) + '\\n')"
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.cache.tier import CacheConfig
from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.core.spec import ExperimentSpec, HardwareSpec
from repro.obs import Telemetry
from repro.obs.export import stage_breakdown, trace_to_json

DIGESTS = Path(__file__).with_name("trace_digests.json")
RUNNER_SEED = 11

#: A few virtual seconds each, past the ~70 s of provisioning.
SCENARIOS: Dict[str, ExperimentSpec] = {
    "t4-sharded-cached": ExperimentSpec(
        "gru4rec", 20_000, 300, HardwareSpec("GPU-T4", 2),
        duration_s=4.0, seed=3, sharding=4,
        cache=CacheConfig(remote_capacity=2048),
    ),
    "t4": ExperimentSpec(
        "gru4rec", 20_000, 600, HardwareSpec("GPU-T4", 1), duration_s=4.0, seed=3
    ),
    "cpu": ExperimentSpec(
        "gru4rec", 20_000, 60, HardwareSpec("CPU", 1), duration_s=4.0, seed=3
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digests(spec: ExperimentSpec, registry: AssetRegistry) -> Dict[str, str]:
    """The trace and breakdown digests of one traced run of ``spec``."""
    telemetry = Telemetry()
    ExperimentRunner(registry=registry, seed=RUNNER_SEED).run(
        spec, telemetry=telemetry
    )
    return {
        "trace": _sha256(trace_to_json(telemetry.trace)),
        "stage_breakdown": _sha256(
            json.dumps(stage_breakdown(telemetry.trace).to_dict())
        ),
    }


def digests() -> Dict[str, Dict[str, str]]:
    """Fresh digests of every scenario (what the stored file should hold)."""
    registry = AssetRegistry()
    return {name: run_digests(spec, registry) for name, spec in SCENARIOS.items()}


@pytest.fixture(scope="module")
def registry():
    return AssetRegistry()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_and_breakdown_digests(name, registry):
    stored = json.loads(DIGESTS.read_text())
    assert run_digests(SCENARIOS[name], registry) == stored[name]


def test_every_scenario_is_stored():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(SCENARIOS)
