"""Declarative experiment files.

The paper's interface is declarative: "data scientists provide a set of
trained SBR models and declaratively specify statistics of the underlying
product catalog, hardware options ... together with latency and throughput
constraints". This module makes that a file format: a JSON document
describing one experiment (or a list of them), loadable by the CLI and the
API.

Example (``experiment.json``)::

    {
      "model": "gru4rec",
      "catalog_size": 1000000,
      "target_rps": 500,
      "hardware": {"instance_type": "GPU-T4", "replicas": 1},
      "duration_s": 600,
      "execution": "jit",
      "workload": {"alpha_length": 1.85, "alpha_clicks": 1.35},
      "slo": {"p90_latency_ms": 50}
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Any, Dict, List, Tuple, Union

from repro.core.spec import FEATURES, SLO, ExperimentSpec, HardwareSpec
from repro.workload.statistics import WorkloadStatistics

_KNOWN_KEYS = {
    "model",
    "catalog_size",
    "target_rps",
    "hardware",
    "duration_s",
    "execution",
    "top_k",
    "workload",
    "seed",
    "slo",
} | {feature.key for feature in FEATURES}

#: A dimension at its field default is left out of a written document.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentSpec)}


def spec_from_dict(raw: Dict[str, Any]) -> Tuple[ExperimentSpec, SLO]:
    """Build an (ExperimentSpec, SLO) pair from a declarative document."""
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ValueError(
            f"unknown spec keys: {sorted(unknown)}; known: {sorted(_KNOWN_KEYS)}"
        )
    for required in ("model", "catalog_size", "target_rps"):
        if required not in raw:
            raise ValueError(f"spec is missing required key {required!r}")

    hardware_raw = raw.get("hardware", {})
    hardware = HardwareSpec(
        instance_type=hardware_raw.get("instance_type", "CPU"),
        replicas=int(hardware_raw.get("replicas", 1)),
    )

    workload = None
    if "workload" in raw:
        workload_raw = dict(raw["workload"])
        workload_raw.setdefault("catalog_size", raw["catalog_size"])
        workload = WorkloadStatistics(
            catalog_size=int(workload_raw["catalog_size"]),
            alpha_length=float(workload_raw["alpha_length"]),
            alpha_clicks=float(workload_raw["alpha_clicks"]),
            max_session_length=int(workload_raw.get("max_session_length", 80)),
        )

    slo_raw = raw.get("slo", {})
    slo = SLO(
        p90_latency_ms=float(slo_raw.get("p90_latency_ms", 50.0)),
        max_error_rate=float(slo_raw.get("max_error_rate", 0.01)),
    )

    # Spec strings are parsed by ExperimentSpec itself; the two plain
    # numbers keep their int/float coercion.
    features = {
        feature.field: (
            feature.parse(raw[feature.key])
            if feature.parse in (int, float)
            else raw[feature.key]
        )
        for feature in FEATURES
        if feature.key in raw
    }
    spec = ExperimentSpec(
        model=raw["model"],
        catalog_size=int(raw["catalog_size"]),
        target_rps=int(raw["target_rps"]),
        hardware=hardware,
        duration_s=float(raw.get("duration_s", 600.0)),
        execution=raw.get("execution", "jit"),
        top_k=int(raw.get("top_k", 21)),
        workload=workload,
        seed=int(raw.get("seed", 1234)),
        **features,
    )
    return spec, slo


def load_spec_file(path: str) -> List[Tuple[ExperimentSpec, SLO]]:
    """Load one spec document or a list of them from a JSON file."""
    with open(path) as handle:
        document = json.load(handle)
    if isinstance(document, dict):
        document = [document]
    if not isinstance(document, list) or not document:
        raise ValueError("spec file must contain an object or a non-empty list")
    return [spec_from_dict(entry) for entry in document]


def spec_to_dict(spec: ExperimentSpec, slo: SLO = SLO()) -> Dict[str, Any]:
    """Serialize a spec back into the declarative document shape."""
    document: Dict[str, Any] = {
        "model": spec.model,
        "catalog_size": spec.catalog_size,
        "target_rps": spec.target_rps,
        "hardware": {
            "instance_type": spec.hardware.instance_type,
            "replicas": spec.hardware.replicas,
        },
        "duration_s": spec.duration_s,
        "execution": spec.execution,
        "top_k": spec.top_k,
        "seed": spec.seed,
        "slo": asdict(slo),
    }
    for feature in FEATURES:
        value = getattr(spec, feature.field)
        if value != _DEFAULTS[feature.field]:
            document[feature.key] = (
                value if feature.parse in (int, float) else value.spec_string()
            )
    if spec.workload is not None:
        document["workload"] = {
            "catalog_size": spec.workload.catalog_size,
            "alpha_length": spec.workload.alpha_length,
            "alpha_clicks": spec.workload.alpha_clicks,
            "max_session_length": spec.workload.max_session_length,
        }
    return document
