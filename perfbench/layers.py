"""Per-layer host time and counts, taken from outside the program.

A traced run splits one whole invocation (imports, set-up and one
iteration) across the ``repro.<package>`` layers:

- Imports are timed by ``python -X importtime`` in a fresh process. A
  module's own import time goes to its layer; a third-party module's goes
  to the layer whose import statement pulled it in.
- Set-up and the iteration run under :mod:`cProfile`. Each function's own
  time (``tottime``) goes to the layer its file belongs to. Functions
  outside ``repro`` (C builtins such as ``heapq.heappush``, numpy, the
  standard library) are charged to the layers that called them, split by
  the per-caller times the profiler keeps.

What no ``repro`` code ran (the benchmark itself, the standard library it
imports) is ``other``.

Counts are call counts of named ``repro`` functions, so they are exact
and repeat exactly between two traced runs of the same code.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

#: ``repro.<package>`` -> layer. Packages not listed (``ann``,
#: ``scheduler``, ``tenancy``: opt-in dimensions no reference workload
#: enables) and top-level modules count as ``other``.
LAYER_OF_PACKAGE = {
    "simulation": "simulation",
    "metrics": "metrics",
    "loadgen": "loadgen",
    "serving": "serving",
    "cluster": "cluster",
    "sharding": "sharding",
    "cache": "cache",
    "workload": "workload",
    "obs": "obs",
    "tensor": "tensor",
    "models": "tensor",
    "hardware": "hardware",
    "core": "core",
    "exec": "exec",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_PACKAGE.values())) + ("other",)

#: Count name -> the ``repro`` function whose calls it counts.
COUNTED = {
    "simulation.events": "repro.simulation.simulator:Simulator.call_at",
    "metrics.digest_records": "repro.metrics.percentile:LatencyDigest.record",
    "metrics.ok": "repro.metrics.collector:MetricsCollector.record",
    "loadgen.sent": "repro.loadgen.generator:LoadGenerator._send_one",
    "serving.server_submits": "repro.serving.actix:EtudeInferenceServer.submit",
    "serving.gpu_flushes": "repro.serving.actix:EtudeInferenceServer._gpu_batch_time",
    "serving.cpu_services": "repro.serving.actix:EtudeInferenceServer._cpu_service_time",
    "cluster.submits": "repro.cluster.service:ClusterIPService.submit",
    "sharding.fanouts": "repro.sharding.gather:ScatterGatherAggregator.scatter",
    # A generator: the profiler counts one call per resumption, i.e. one
    # per session drawn.
    "workload.sessions": "repro.workload.synthetic:SyntheticWorkloadGenerator.iter_sessions",
    "core.runs": "repro.core.experiment:ExperimentRunner.run",
    "core.trace_lookups": "repro.core.registry:AssetRegistry.trace",
    # Called once per registry trace miss, i.e. per forward pass traced.
    "tensor.traces": "repro.core.registry:AssetRegistry._runner",
    "exec.tasks": "repro.exec.tasks:run_task",
}

#: Every per-layer metric, in print order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("simulation.self_s", "s"),
    ("simulation.events", "count"),
    ("simulation.events_per_req", "ratio"),
    ("simulation.us_per_event", "us"),
    ("metrics.self_s", "s"),
    ("metrics.digest_records", "count"),
    ("metrics.ok", "count"),
    ("metrics.records_per_ok", "ratio"),
    ("loadgen.self_s", "s"),
    ("loadgen.sent", "count"),
    ("loadgen.stalls", "count"),
    ("serving.self_s", "s"),
    ("serving.server_submits", "count"),
    ("serving.batches", "count"),
    ("serving.batch_mean", "ratio"),
    ("cluster.self_s", "s"),
    ("cluster.submits", "count"),
    ("sharding.self_s", "s"),
    ("sharding.fanouts", "count"),
    ("cache.self_s", "s"),
    ("cache.lookups", "count"),
    ("cache.fills", "count"),
    ("cache.hit_rate", "ratio"),
    ("workload.self_s", "s"),
    ("workload.sessions", "count"),
    ("obs.self_s", "s"),
    ("obs.spans", "count"),
    ("tensor.self_s", "s"),
    ("tensor.traces", "count"),
    ("hardware.self_s", "s"),
    ("core.self_s", "s"),
    ("core.runs", "count"),
    ("core.trace_lookups", "count"),
    ("core.trace_reuse", "ratio"),
    ("core.candidate_s_max", "s"),
    ("exec.self_s", "s"),
    ("exec.tasks", "count"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("trace.iteration_s", "s"),
    ("trace.untraced_iteration_s", "s"),
    ("trace.overhead", "ratio"),
)

#: Every ratio -> the metric it is divided by (printed beside it).
RATIO_BASES = {
    "simulation.events_per_req": "loadgen.sent",
    "simulation.us_per_event": "simulation.events",
    "metrics.records_per_ok": "metrics.ok",
    "serving.batch_mean": "serving.batches",
    "cache.hit_rate": "cache.lookups",
    "core.trace_reuse": "core.trace_lookups",
    "trace.attributed_share": "trace.wall_s",
    "trace.overhead": "trace.untraced_iteration_s",
}

#: Below this share of the traced wall time in ``repro`` layers, the
#: run lists the functions that make up the unattributed remainder.
ATTRIBUTION_FLOOR = 0.95

Key = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a profiled file, or None when it is outside ``repro``."""
    if not filename.startswith(package_dir):
        return None
    parts = filename[len(package_dir):].split(os.sep)
    if len(parts) < 2:
        return "other"  # repro/__init__.py, repro/cli.py, ...
    return LAYER_OF_PACKAGE.get(parts[0], "other")


def self_times(stats: Dict, package_dir: str) -> Tuple[Dict[str, float], Dict[Key, float]]:
    """Own time per layer, and the functions whose time landed in ``other``.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``{key: (cc, nc, tt, ct, {caller_key: (nc, cc, tt, ct)})}``.
    """
    layers: Dict[str, float] = defaultdict(float)
    other: Dict[Key, float] = defaultdict(float)
    shares: Dict[Key, Dict[str, float]] = {}

    def share(key: Key, path: frozenset) -> Dict[str, float]:
        """How a non-repro function's calls split over layers, by caller."""
        if key in shares:
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        weights = {c: v[3] for c, v in callers.items() if c not in path}
        total = sum(weights.values())
        if total <= 0.0:
            result = {"other": 1.0}
        else:
            result = defaultdict(float)
            for caller, weight in weights.items():
                layer = layer_of(caller[0], package_dir)
                if layer is not None:
                    result[layer] += weight / total
                else:
                    for name, part in share(caller, path | {key}).items():
                        result[name] += part * weight / total
        shares[key] = result
        return result

    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(key[0], package_dir)
        if layer is not None:
            layers[layer] += tt
            if layer == "other":
                other[key] += tt
            continue
        charged = 0.0
        for caller, (_n, _c, caller_tt, _t) in callers.items():
            charged += caller_tt
            caller_layer = layer_of(caller[0], package_dir)
            parts = (
                {caller_layer: 1.0}
                if caller_layer is not None
                else share(caller, frozenset({key}))
            )
            for name, part in parts.items():
                layers[name] += caller_tt * part
            if caller_layer is None and parts.get("other"):
                other[key] += caller_tt * parts["other"]
        rest = max(tt - charged, 0.0)
        layers["other"] += rest
        other[key] += rest
    return {name: layers.get(name, 0.0) for name in LAYERS}, dict(other)


def module_layer(module: str) -> Optional[str]:
    """The layer of an imported module, or None when it is outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "other"
    return LAYER_OF_PACKAGE.get(parts[1], "other")


def import_self_times(log: str) -> Tuple[Dict[str, float], float]:
    """Own import seconds per layer, and the total, from ``-X importtime``.

    The log lists each module when its import finishes, indented one step
    deeper than the module whose import started it, so children come
    right before their parent. Only trees rooted at a ``repro`` module
    count: the rest is interpreter start-up and the benchmark's own
    imports.
    """
    pending: List[Tuple[int, str, float, list]] = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own_us, _cumulative, name = line[len("import time:"):].split("|", 2)
        depth = len(name) - len(name.lstrip(" "))
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(own_us) / 1e6, children))
    seconds: Dict[str, float] = defaultdict(float)
    stack = [(node, "other") for node in pending if module_layer(node[1])]
    while stack:
        (_depth, module, own_s, children), inherited = stack.pop()
        layer = module_layer(module) or inherited
        seconds[layer] += own_s
        stack.extend((child, layer) for child in children)
    return {name: seconds.get(name, 0.0) for name in LAYERS}, sum(seconds.values())


def resolve(target: str) -> Key:
    """Profiler key of ``"module:Qual.name"``."""
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_counts(stats: Dict) -> Dict[str, int]:
    """Exact call count of every function in :data:`COUNTED`."""
    counts = {}
    for name, target in COUNTED.items():
        entry = stats.get(resolve(target))
        counts[name] = entry[1] if entry is not None else 0
    return counts


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(
    stats: Dict,
    package_dir: str,
    results: Iterable,
    spans: int,
    import_log: str,
    profiled_s: float,
    iteration_s: float,
    untraced_iteration_s: float,
    candidate_s_max: float,
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Every :data:`PER_LAYER` value, and the top unattributed functions
    when the ``repro`` layers cover less than :data:`ATTRIBUTION_FLOOR`.

    ``profiled_s`` is the wall time under the profiler; the traced wall
    time adds the imports ``import_log`` (``-X importtime``) accounts for.
    """
    own, other = self_times(stats, package_dir)
    imported, import_s = import_self_times(import_log)
    own = {name: own[name] + imported[name] for name in LAYERS}
    other[("<imports of unmeasured repro packages>", 0, "")] = imported["other"]
    wall_s = import_s + profiled_s
    counts = call_counts(stats)
    results = list(results)
    caches = [r.cache for r in results if r.cache is not None]
    lookups = sum(c["hits_local"] + c["hits_remote"] + c["misses"] for c in caches)
    hits = sum(c["hits_local"] + c["hits_remote"] for c in caches)
    values: Dict[str, float] = {f"{name}.self_s": own[name] for name in LAYERS}
    values.update(
        {
            name: counts[name]
            for name in COUNTED
            if name not in ("serving.gpu_flushes", "serving.cpu_services")
        }
    )
    batches = counts["serving.gpu_flushes"] + counts["serving.cpu_services"]
    attributed = sum(v for name, v in own.items() if name != "other")
    values.update(
        {
            "simulation.events_per_req": ratio(
                counts["simulation.events"], counts["loadgen.sent"]
            ),
            "simulation.us_per_event": 1e6
            * ratio(own["simulation"], counts["simulation.events"]),
            "metrics.records_per_ok": ratio(
                counts["metrics.digest_records"], counts["metrics.ok"]
            ),
            "loadgen.stalls": sum(r.backpressure_stalls for r in results),
            "serving.batches": batches,
            "serving.batch_mean": ratio(counts["serving.server_submits"], batches),
            "cache.lookups": lookups,
            "cache.fills": sum(c["fills"] for c in caches),
            "cache.hit_rate": ratio(hits, lookups),
            "obs.spans": spans,
            "core.trace_reuse": ratio(
                counts["core.trace_lookups"] - counts["tensor.traces"],
                counts["core.trace_lookups"],
            ),
            "core.candidate_s_max": candidate_s_max,
            "trace.wall_s": wall_s,
            "trace.attributed_share": ratio(attributed, wall_s),
            "trace.iteration_s": iteration_s,
            "trace.untraced_iteration_s": untraced_iteration_s,
            "trace.overhead": ratio(iteration_s, untraced_iteration_s),
        }
    )
    unattributed: List[Tuple[str, float]] = []
    if values["trace.attributed_share"] < ATTRIBUTION_FLOOR:
        top = sorted(other.items(), key=lambda item: -item[1])[:10]
        unattributed = [(f"{f}:{line}({name})", t) for (f, line, name), t in top]
    return values, unattributed
