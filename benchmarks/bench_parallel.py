"""PAR — serial-vs-multiprocessing wall clock for a planner sweep.

Runs an identical >= 16-candidate deployment-plan sweep on the serial
backend and on multiprocessing pools (2 workers, then one per core,
unless that is 2 again), asserting every sweep's plan is bit-identical
to serial's before comparing wall clocks — speed that changes the answer
is worthless. Each backend runs ``SWEEPS`` cold sweeps in rotating
order; speed-ups compare medians. The trajectory lands in
``BENCH_parallel.json`` so future PRs can see whether the parallel path
keeps paying for itself.

Interpretation notes:

- every sweep starts from a cold registry (fresh runner, fresh worker
  state), so serial and mp both pay full model tracing; nothing leaks
  between timed sweeps;
- a cold serial sweep builds one workload item pool per (workload seed,
  statistics) key and reuses it for every candidate after the first;
  each mp worker builds its own pool once per key;
- on hosts with few cores mp gains little or loses — workers re-trace
  models the serial sweep traces once, and fork/pickle overhead is pure
  tax. The >= 2x speedup expectation only applies on >= 4 cores
  (docs/parallelism.md, "when mp loses");
- one cold sweep's wall time moves by about a quarter between identical
  sweeps on a 2-core host, so each backend runs ``SWEEPS`` of them and
  the speed-up compares medians.
"""

import json
import os
import statistics
import time
from pathlib import Path

from conftest import REPETITIONS, SMOKE, run_once

from repro.core import DeploymentPlanner
from repro.core.experiment import ExperimentRunner
from repro.core.registry import AssetRegistry
from repro.core.spec import Scenario
from repro.exec.config import BackendConfig
from repro.hardware.instances import instance_by_name

SCENARIO = Scenario("parallel-sweep", 20_000, 60)
MODELS = ("gru4rec", "narm")
INSTANCES = ("CPU", "GPU-T4")
SHARD_COUNTS = (1, 2, 4, 8)  # 2 models x 2 instances x 4 = 16 candidates
DURATION_S = 15.0 if SMOKE else 45.0
#: Cold sweeps per backend; one per round, each round in rotated order.
SWEEPS = 1 if SMOKE else 3
SEED = 20240704
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _sweep(backend_spec):
    """One cold full sweep; returns (fingerprint, wall_s)."""
    planner = DeploymentPlanner(
        runner=ExperimentRunner(registry=AssetRegistry(), seed=SEED),
        duration_s=DURATION_S,
        max_replicas=4,
        repetitions=REPETITIONS,
        shard_counts=SHARD_COUNTS,
        backend=backend_spec,
    )
    instances = [instance_by_name(name) for name in INSTANCES]
    started = time.perf_counter()
    plans = planner.plan(SCENARIO, list(MODELS), instances=instances)
    wall_s = time.perf_counter() - started
    fingerprint = json.dumps(
        {
            model: {
                "options": [
                    (
                        option.instance_type,
                        option.replicas,
                        option.shards,
                        option.monthly_cost_usd,
                        option.result.p90_at_target_ms,
                        option.result.total_requests,
                        option.result.ok_requests,
                    )
                    for option in plan.options
                ],
                "infeasible": list(plan.infeasible.items()),
            }
            for model, plan in plans.items()
        },
        sort_keys=True,
    )
    return fingerprint, wall_s


def _backends():
    """One backend spec per distinct effective worker count, by count."""
    by_workers = {}
    for spec in ("serial", "mp:workers=2", "mp"):
        by_workers.setdefault(BackendConfig.parse(spec).effective_workers(), spec)
    return {spec: workers for workers, spec in by_workers.items()}


def test_parallel_speedup(benchmark):
    cores = os.cpu_count() or 1
    candidates = len(MODELS) * len(INSTANCES) * len(SHARD_COUNTS)
    assert candidates >= 16
    backends = _backends()

    sweeps = {spec: [] for spec in backends}
    fingerprints = {spec: [] for spec in backends}

    def all_sweeps():
        order = list(backends)
        for round_index in range(SWEEPS):
            shift = round_index % len(order)
            for spec in order[shift:] + order[:shift]:
                fingerprint, wall_s = _sweep(spec)
                fingerprints[spec].append(fingerprint)
                sweeps[spec].append(wall_s)
        return sweeps

    run_once(benchmark, all_sweeps)

    print()
    print(
        f"=== PAR {candidates} candidates, duration {DURATION_S:g} s, "
        f"{SWEEPS} sweep(s) per backend, {cores} host core(s)"
    )
    runs = []
    serial = fingerprints["serial"][0]
    serial_s = statistics.median(sweeps["serial"])
    for spec, workers in backends.items():
        wall_s = statistics.median(sweeps[spec])
        speedup = serial_s / wall_s if wall_s > 0 else float("inf")
        identical = all(fp == serial for fp in fingerprints[spec])
        runs.append(
            {
                "backend": spec,
                "workers": workers,
                "sweeps_s": [round(sweep_s, 3) for sweep_s in sweeps[spec]],
                "wall_s": round(wall_s, 3),
                "speedup_vs_serial": round(speedup, 3),
                "identical_to_serial": identical,
            }
        )
        print(
            f"  {spec:14s} workers={workers:<2d} median wall={wall_s:7.2f} s  "
            f"speedup={speedup:5.2f}x  identical={identical}  sweeps="
            + ", ".join(f"{sweep_s:.2f}" for sweep_s in sweeps[spec])
        )

    # Determinism is non-negotiable on every host; speed is conditional.
    for run in runs:
        assert run["identical_to_serial"], run["backend"]
    best_speedup = max(run["speedup_vs_serial"] for run in runs[1:])
    if cores >= 4:
        assert best_speedup >= 2.0, (
            f"expected >= 2x on a {cores}-core host, got {best_speedup:.2f}x"
        )

    benchmark.extra_info["candidates"] = candidates
    benchmark.extra_info["host_cores"] = cores
    benchmark.extra_info["best_speedup"] = best_speedup

    if not SMOKE:
        RESULTS_PATH.write_text(
            json.dumps(
                {
                    "benchmark": "parallel",
                    "scenario": {
                        "name": SCENARIO.name,
                        "catalog_size": SCENARIO.catalog_size,
                        "target_rps": SCENARIO.target_rps,
                    },
                    "models": list(MODELS),
                    "instances": list(INSTANCES),
                    "shard_counts": list(SHARD_COUNTS),
                    "candidates": candidates,
                    "duration_s": DURATION_S,
                    "repetitions": REPETITIONS,
                    "sweeps_per_backend": SWEEPS,
                    "host_cores": cores,
                    "runs": runs,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {RESULTS_PATH.name}")
