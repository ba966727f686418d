"""Command-line interface: ``python -m repro <command> ...``.

The paper drives experiments through ``make`` targets (``make infra``,
``make run_deployed_benchmark``); this CLI is the equivalent surface:

- ``models``      list the model zoo;
- ``infra-test``  the Figure 2 serving-stack test;
- ``micro``       the Figure 3 serial microbenchmark for one configuration;
- ``run``         one deployed benchmark (Figure 4 style);
- ``drill``       a scripted zone-outage failure drill (docs/availability.md);
- ``plan``        the Table I cost-efficiency planner for a scenario;
- ``workload``    generate a synthetic click log (Algorithm 1) to CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core import (
    SLO,
    DeploymentPlanner,
    ExperimentRunner,
    ExperimentSpec,
    HardwareSpec,
    run_infra_test,
    serial_microbenchmark,
)
from repro.core.report import render_latency_series, render_scenario_table
from repro.core.infra_test import INFRA_TEST_FEATURES, infra_test_features
from repro.core.spec import FEATURE_BY_FIELD, FEATURES, Scenario
from repro.exec.backend import ExecTask, make_backend
from repro.hardware.clouds import cloud_catalog
from repro.hardware.instances import instance_by_name
from repro.models import BENCHMARK_MODELS, HEALTHY_MODELS, MODEL_REGISTRY
from repro.workload import SyntheticWorkloadGenerator, WorkloadStatistics


def _add_feature_flags(parser, *fields: str) -> None:
    """Register the flags of the FEATURES rows for ``fields``, in table order."""
    for feature in FEATURES:
        if feature.field in fields:
            parser.add_argument(
                feature.flag, dest=feature.field, **feature.flag_kwargs
            )


def _add_models_command(subparsers) -> None:
    subparsers.add_parser("models", help="list the model zoo")


def _add_infra_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "infra-test", help="Figure 2: serving stacks with no model inference"
    )
    parser.add_argument("--server", choices=("actix", "torchserve"), default="actix")
    parser.add_argument("--rps", type=int, default=1000)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=1234)
    _add_trace_flags(parser)
    _add_feature_flags(parser, *INFRA_TEST_FEATURES)


def _add_micro_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "micro", help="Figure 3: serial prediction-latency microbenchmark"
    )
    parser.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--execution", choices=("eager", "jit", "onnx"), default="jit")
    parser.add_argument("--requests", type=int, default=200)


def _add_run_command(subparsers) -> None:
    parser = subparsers.add_parser("run", help="one deployed benchmark")
    parser.add_argument("--spec", help="declarative JSON spec file (overrides flags)")
    parser.add_argument("--model", choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int)
    parser.add_argument("--rps", type=int)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--execution", choices=("eager", "jit", "onnx"), default="jit")
    parser.add_argument("--p90-limit", type=float, default=50.0)
    parser.add_argument("--series", action="store_true", help="print per-second series")
    parser.add_argument("--plot", action="store_true",
                        help="ASCII latency-vs-load chart (the Figure 4 view)")
    _add_trace_flags(parser)
    _add_feature_flags(parser, *FEATURE_BY_FIELD)
    _add_backend_flag(parser)


def _add_drill_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "drill",
        help="scripted failure drill: zone outage -> degradation -> recovery",
    )
    parser.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--rps", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--p90-limit", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1234)
    _add_feature_flags(parser, "sharding")
    parser.add_argument(
        "--zones", type=int, default=2, metavar="N",
        help="failure domains to spread the fleet over (default 2)",
    )
    parser.add_argument(
        "--zones-down", type=int, default=1, metavar="N",
        help="zones (z0..) crashed simultaneously mid-run (default 1)",
    )
    parser.add_argument(
        "--outage-at", type=float, default=None, metavar="SECONDS",
        help="outage time relative to load start (default: duration/3)",
    )
    parser.add_argument(
        "--restart-after", default="20", metavar="SECONDS",
        help="kubelet restart delay for the crashed zone, or 'none' to "
        "leave it dark (default 20)",
    )
    parser.add_argument(
        "--routing", default=None, metavar="SPEC",
        help="health-aware service routing for the drilled deployment; "
        "SPEC like 'lor,eject=3' (default: plain round-robin)",
    )


def _add_plan_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "plan", help="Table I: cheapest feasible deployment per instance type"
    )
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--rps", type=int, required=True)
    parser.add_argument(
        "--models", default=",".join(HEALTHY_MODELS),
        help="comma-separated model names",
    )
    parser.add_argument("--cloud", choices=("gcp", "aws", "azure"), default="gcp")
    parser.add_argument("--p90-limit", type=float, default=50.0)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--max-replicas", type=int, default=8)
    _add_feature_flags(parser, "cache")
    parser.add_argument(
        "--shards", default="1", metavar="COUNTS",
        help="comma-separated catalog-shard counts to evaluate per "
        "instance type, e.g. '1,4,8' (replica counts are then per shard)",
    )
    _add_feature_flags(parser, "retrieval")
    parser.add_argument(
        "--min-recall", type=float, default=0.95, metavar="FLOAT",
        help="recall@k floor for ANN candidates; IVF options whose "
        "measured recall falls below this are reported infeasible "
        "(default 0.95)",
    )
    scheduler = FEATURE_BY_FIELD["scheduler"]
    parser.add_argument(scheduler.flag, **{
        **scheduler.flag_kwargs,
        "action": "append",
        "help": scheduler.flag_kwargs["help"]
        + "; repeat to sweep CPU:GPU mix ratios",
    })
    parser.add_argument(
        "--survive-zones", type=int, default=0, metavar="N",
        help="availability requirement: every admitted option must pass "
        "a failure drill with N zones permanently dark (candidates "
        "deploy across N+1 failure domains and pay for the extra "
        "replicas; default 0 = single-domain planning)",
    )
    _add_feature_flags(parser, "tenants")
    _add_backend_flag(parser)


def _add_compare_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="run several models on the same deployment"
    )
    parser.add_argument(
        "--models", default=",".join(HEALTHY_MODELS),
        help="comma-separated model names",
    )
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--rps", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--p90-limit", type=float, default=50.0)


def _add_profile_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile", help="per-op cost breakdown of one model forward pass"
    )
    parser.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--rows", type=int, default=15)


def _add_reproduce_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "reproduce", help="regenerate the paper's evaluation as markdown"
    )
    parser.add_argument(
        "--artifacts", default="fig2,fig3,fig4,tab1,alg1,bugs",
        help="comma-separated subset of fig2,fig3,fig4,tab1,alg1,bugs",
    )
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--micro-requests", type=int, default=120)
    parser.add_argument("--out", default="-", help="markdown path or '-'")


def _add_workload_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "workload", help="Algorithm 1: generate a synthetic click log"
    )
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--clicks", type=int, default=100_000)
    parser.add_argument("--alpha-length", type=float, default=1.85)
    parser.add_argument("--alpha-clicks", type=float, default=1.35)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--out", default="-", help="CSV path or '-' for stdout")
    parser.add_argument("--head", type=int, default=20,
                        help="rows to print when writing to stdout")


def _add_trace_flags(parser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record per-request spans + metrics; print the stage breakdown",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span trace as JSON to PATH (implies --trace)",
    )


def _add_backend_flag(parser) -> None:
    parser.add_argument(
        "--backend", default=None, metavar="SPEC",
        help="execution backend for independent candidate evaluations "
        "and multi-job spec files: 'serial' (default) or "
        "'mp[:workers=N]' (process pool, N=0 or omitted means one "
        "worker per core); results are bit-identical either way. "
        "Overrides the ETUDE_BACKEND env var (docs/parallelism.md)",
    )


def _render_tenancy(tenancy: dict) -> str:
    """The per-tenant summary block shared by run and infra-test."""
    lines = [f"  tenants[{tenancy['config']}]:"]
    for name, row in tenancy.get("tenants", {}).items():
        p90 = row.get("p90_ms")
        slo = row.get("slo_ms")
        slo_text = ""
        if slo is not None:
            met = row.get("slo_met")
            slo_text = f" slo={slo:g}ms[{'met' if met else 'MISSED'}]"
        canary = (
            f", {row['canary_requests']} canary"
            if row.get("canary_requests")
            else ""
        )
        hits = (
            f", {row['cache_hits']} cache hits" if row.get("cache_hits") else ""
        )
        lines.append(
            f"    {name}({row['model']}): {row['requests']} req "
            f"({row.get('rps', 0) or 0:g} rps), ok={row['ok']} "
            f"err={row['errors']} shed={row['shed']}, "
            f"p90={'n/a' if p90 is None else f'{p90:.1f} ms'}"
            + slo_text + canary + hits
        )
    for name, row in tenancy.get("shadow", {}).items():
        lines.append(
            f"    {name}({row['model']}, shadow): "
            f"{row['mirrored']} mirrored, {row['completed']} scored, "
            f"{row['shed']} shed (0 client-visible)"
        )
    for rollout in tenancy.get("rollouts", []):
        lines.append(
            f"    rollout[{rollout['tenant']}]: "
            f"{rollout['pods_updated']} pods updated, "
            f"completed={rollout['completed']}"
        )
    return "\n".join(lines)


def _given_features(args) -> dict:
    """Spec field -> raw value of every feature flag given on the command line."""
    given = {}
    for feature in FEATURES:
        value = getattr(args, feature.field, None)
        if value is not None:
            given[feature.field] = value
    if given.get("zones", 1) < 1:
        raise SystemExit("--zones must be >= 1")
    if given.get("slo_deadline_s", 1.0) <= 0:
        raise SystemExit("--slo-deadline must be positive")
    return given


def _parse_backend(args):
    """Backend instance from the --backend flag (or ETUDE_BACKEND)."""
    try:
        return make_backend(getattr(args, "backend", None))
    except ValueError as error:
        raise SystemExit(str(error))


def _render_scheduler(scheduler: dict) -> str:
    """The one-line scheduler summary for run output."""
    tuner = scheduler.get("tuner")
    extras = ""
    if tuner is not None:
        extras = (
            f"; tuner {tuner['moves']} moves/{tuner['epochs']} epochs -> "
            f"batch {tuner['max_batch']}/"
            f"{tuner['linger_s'] * 1e3:g} ms"
            f"{' (converged)' if tuner['converged'] else ''}"
        )
    return (
        f"  scheduler[{scheduler['config']}]: "
        f"{scheduler['routed_cpu']} cpu / {scheduler['routed_gpu']} gpu "
        f"({scheduler['offload_short_session']} short, "
        f"{scheduler['offload_tight_slack']} tight-slack)"
        + extras
    )


def _render_retrieval(retrieval: dict) -> str:
    """The one-line retrieval summary shared by run and infra-test."""
    recall = retrieval.get("recall_at_k")
    build = retrieval.get("index_build_s")
    extras = ""
    if recall is not None:
        extras += f", recall@k={recall:.3f}"
    if build is not None:
        extras += f", index build={build:.2f} s/pod"
    return (
        f"  retrieval[{retrieval['config']}]: "
        f"{retrieval.get('ann_queries', 0)} ANN queries, "
        f"{retrieval.get('ann_probed_lists', 0)} lists probed"
        + extras
    )


def _render_sharding(sharding: dict) -> str:
    """The one-line sharding summary shared by run and infra-test."""
    partial = sharding.get("partial_responses", 0)
    coverage = sharding.get("mean_coverage")
    coverage_text = (
        f", mean coverage={coverage * 100:.1f}%" if coverage is not None else ""
    )
    return (
        f"  sharding[{sharding['config']}]: "
        f"{sharding.get('fanouts', 0)} fan-outs, "
        f"{sharding.get('merged_ok', 0)} merged 200s, "
        f"{partial} partial, "
        f"{sharding.get('failed_fanouts', 0)} failed"
        + coverage_text
    )


def _render_availability(availability: dict) -> str:
    """The one-line failure-domain summary for run/drill output."""
    per_zone = availability.get("pods_per_zone", {})
    spread = " ".join(f"{zone}={count}" for zone, count in sorted(per_zone.items()))
    outages = availability.get("zone_outages", [])
    ttr = availability.get("time_to_recovery_s")
    ttr_text = (
        f", TTR={ttr:.1f} s" if ttr is not None
        else ", never recovered" if outages else ""
    )
    return (
        f"  zones[{availability['zones']}]: pods {spread}, "
        f"{availability.get('cross_zone_legs', 0)} cross-zone legs, "
        f"{len(outages)} outage(s)"
        + ttr_text
    )


def _render_cache(cache: dict) -> str:
    """The one-line cache summary shared by run and infra-test."""
    p90_hit = cache.get("p90_hit_ms")
    p90_miss = cache.get("p90_miss_ms")
    split = ""
    if p90_hit is not None and p90_miss is not None:
        split = f", p90 hit/miss={p90_hit:.2f}/{p90_miss:.2f} ms"
    return (
        f"  cache[{cache['config']}]: "
        f"{cache['hit_rate'] * 100:.1f}% hit rate "
        f"(local={cache['hits_local']} remote={cache['hits_remote']} "
        f"miss={cache['misses']}), "
        f"{cache['coalesced']} coalesced, "
        f"{cache['evictions']} evicted"
        + split
    )


def _render_overload(overload: dict) -> str:
    """The one-line overload summary shared by run and infra-test."""
    shed = (
        overload["shed_deadline"]
        + overload["shed_codel"]
        + overload["shed_queue_full"]
    )
    p90_degraded = overload.get("p90_degraded_ms")
    return (
        f"  overload: {shed} shed "
        f"(deadline={overload['shed_deadline']} "
        f"codel={overload['shed_codel']} "
        f"queue={overload['shed_queue_full']}), "
        f"{overload['degraded_served']} degraded 200s "
        f"({overload['degraded_fraction'] * 100:.1f}% of ok"
        + (
            f", p90={p90_degraded:.1f} ms"
            if p90_degraded is not None
            else ""
        )
        + ")"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ETUDE reproduction: benchmark SBR model serving.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_models_command(subparsers)
    _add_infra_command(subparsers)
    _add_micro_command(subparsers)
    _add_run_command(subparsers)
    _add_drill_command(subparsers)
    _add_plan_command(subparsers)
    _add_compare_command(subparsers)
    _add_profile_command(subparsers)
    _add_reproduce_command(subparsers)
    _add_workload_command(subparsers)
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _make_telemetry(args):
    """A fresh Telemetry when --trace/--trace-out was given, else None."""
    trace_out = getattr(args, "trace_out", None)
    if not (getattr(args, "trace", False) or trace_out):
        return None
    if trace_out:
        # Fail before the (possibly long) run, not after it.
        try:
            with open(trace_out, "a"):
                pass
        except OSError as error:
            raise SystemExit(f"cannot write --trace-out {trace_out!r}: {error}")
    from repro.obs import Telemetry

    # Only the JSON dump reads span rows; the breakdown reads the stage log.
    return Telemetry(keep_spans=bool(trace_out))


def _emit_telemetry(telemetry, out, trace_out: Optional[str]) -> None:
    """Print the per-stage breakdown + timeline, optionally dump the trace."""
    from repro.obs import (
        render_breakdown,
        render_timeline,
        stage_breakdown,
        trace_to_json,
    )

    report = stage_breakdown(telemetry.trace)
    if report is not None:
        out.write(render_breakdown(report) + "\n")
    else:
        out.write("no completed (HTTP 200) traced requests; no breakdown\n")
    if telemetry.sampler is not None and telemetry.sampler.ticks:
        out.write(render_timeline(telemetry.sampler) + "\n")
    if trace_out:
        try:
            with open(trace_out, "w") as handle:
                handle.write(trace_to_json(telemetry.trace, indent=2))
        except OSError as error:
            raise SystemExit(f"cannot write --trace-out {trace_out!r}: {error}")
        spans = len(telemetry.trace)
        out.write(f"wrote {spans} spans to {trace_out}\n")


def _cmd_models(_args, out) -> int:
    out.write("benchmarked models (paper Section II):\n")
    for name in BENCHMARK_MODELS:
        healthy = "" if name in HEALTHY_MODELS else "   [known performance bug]"
        out.write(f"  {name}{healthy}\n")
    out.write("plus: noop (Figure 2 infrastructure test)\n")
    return 0


def _cmd_infra(args, out) -> int:
    telemetry = _make_telemetry(args)
    if telemetry is not None and args.server != "actix":
        out.write("note: --trace instruments only the actix server\n")
    try:
        features = infra_test_features(args.server, **_given_features(args))
    except ValueError as error:
        raise SystemExit(str(error))
    result = run_infra_test(
        args.server,
        target_rps=args.rps,
        duration_s=args.duration,
        seed=args.seed,
        telemetry=telemetry,
        **features,
    )
    out.write(render_latency_series(result.series, args.server, every=20) + "\n")
    out.write(
        f"{args.server}: {result.ok}/{result.total} ok, "
        f"{result.errors} errors ({result.error_rate * 100:.1f}%), "
        f"p90={'n/a' if result.p90_ms is None else f'{result.p90_ms:.2f} ms'}\n"
    )
    if features["retry"] is not None or features["chaos"] is not None:
        out.write(
            f"  resilience: {result.retries} retries, {result.hedges} hedges, "
            f"{len(result.chaos_events)} chaos events\n"
        )
    if result.overload is not None:
        out.write(_render_overload(result.overload) + "\n")
    if result.cache is not None:
        out.write(_render_cache(result.cache) + "\n")
    if result.sharding is not None:
        out.write(_render_sharding(result.sharding) + "\n")
    if result.retrieval is not None:
        out.write(_render_retrieval(result.retrieval) + "\n")
    if result.tenancy is not None:
        out.write(_render_tenancy(result.tenancy) + "\n")
    if telemetry is not None:
        _emit_telemetry(telemetry, out, args.trace_out)
    return 0


def _cmd_micro(args, out) -> int:
    result = serial_microbenchmark(
        args.model,
        args.catalog,
        instance_by_name(args.instance),
        args.execution,
        num_requests=args.requests,
    )
    fallback = " (JIT failed -> eager)" if result.jit_failed else ""
    out.write(
        f"{args.model} C={args.catalog:,} on {args.instance} "
        f"[{result.execution_effective}{fallback}]: "
        f"mean={result.mean_ms:.3f} p50={result.p50_ms:.3f} "
        f"p90={result.p90_ms:.3f} p99={result.p99_ms:.3f} ms\n"
    )
    return 0


def _cmd_run(args, out) -> int:
    runner = ExperimentRunner()
    given = _given_features(args)
    try:
        if args.spec:
            from repro.core.specfile import load_spec_file

            try:
                loaded = load_spec_file(args.spec)
            except OSError as error:
                raise SystemExit(f"cannot read --spec {args.spec!r}: {error}")
            # Flags given on the command line override the file's settings.
            jobs = [(replace(spec, **given), slo) for spec, slo in loaded]
        else:
            model = args.model
            if model is None and "tenants" in given:
                # A fleet names its own models; the anchor defaults to the
                # first primary tenant's.
                fleet = FEATURE_BY_FIELD["tenants"].coerce(given["tenants"])
                if fleet is not None:
                    model = fleet.primaries[0].model
            for required, value in (
                ("model", model), ("catalog", args.catalog), ("rps", args.rps),
            ):
                if value is None:
                    raise SystemExit(f"--{required} is required without --spec")
            jobs = [
                (
                    ExperimentSpec(
                        model=model,
                        catalog_size=args.catalog,
                        target_rps=args.rps,
                        hardware=HardwareSpec(args.instance, args.replicas),
                        duration_s=args.duration,
                        execution=args.execution,
                        **given,
                    ),
                    SLO(p90_latency_ms=args.p90_limit),
                )
            ]
    except ValueError as error:
        raise SystemExit(str(error))

    # Independent jobs of a multi-job spec file can fan out to the
    # execution backend; results come back in job order so the rendered
    # report is byte-identical to a serial run. Tracing stays serial —
    # a Telemetry bundle is live in-process state, not a picklable task
    # payload.
    precomputed = None
    backend = _parse_backend(args)
    if backend.config.parallel and len(jobs) > 1:
        if _make_telemetry(args) is not None:
            out.write(
                "note: --trace forces the serial backend "
                "(spans are recorded in-process)\n"
            )
        else:
            tasks = [
                ExecTask(
                    key=("experiment_run", index),
                    kind="experiment_run",
                    payload={"spec": spec, "seed": runner.seed},
                )
                for index, (spec, _slo) in enumerate(jobs)
            ]
            precomputed = []
            for outcome in backend.run_tasks(tasks):
                if outcome.memos:
                    runner.registry.absorb_memos(outcome.memos)
                value = outcome.value
                if isinstance(value, dict) and "deployment_error" in value:
                    # Same failure surface as the serial path, which
                    # lets runner.run's DeploymentError propagate.
                    from repro.cluster.kubernetes import DeploymentError

                    raise DeploymentError(value["deployment_error"])
                precomputed.append(value)

    all_ok = True
    for index, (spec, slo) in enumerate(jobs):
        telemetry = _make_telemetry(args)
        if precomputed is not None:
            result = precomputed[index]
        else:
            result = runner.run(spec, telemetry=telemetry)
        if args.series and result.series is not None:
            out.write(
                render_latency_series(result.series, spec.model, every=10) + "\n"
            )
        if args.plot and result.series is not None:
            from repro.core.ascii_plot import plot_latency_curve

            out.write(plot_latency_curve(result.series, title=spec.model) + "\n")
        p90_target = result.p90_at_target_ms
        meets = result.meets_slo(slo.p90_latency_ms, slo.max_error_rate)
        all_ok = all_ok and meets
        percentiles = (
            "n/a"
            if result.p90_ms is None
            else f"{result.p50_ms:.1f}/{result.p90_ms:.1f}/{result.p99_ms:.1f} ms"
        )
        out.write(
            f"{spec.model} C={spec.catalog_size:,} on "
            f"{spec.hardware.instance_type} x{spec.hardware.replicas} "
            f"@ {spec.target_rps} req/s [{result.execution_mode}]\n"
            f"  ok={result.ok_requests} errors={result.error_requests} "
            f"achieved={result.achieved_rps:.0f} req/s\n"
            f"  p50/p90/p99={percentiles}, p90@target="
            f"{'n/a' if p90_target is None else f'{p90_target:.1f} ms'}\n"
            f"  meets p90<={slo.p90_latency_ms:.0f}ms SLO: {meets}\n"
        )
        if result.resilience is not None:
            res = result.resilience
            out.write(
                f"  resilience: {res['retries']} retries "
                f"({res['retry_successes']} recovered, "
                f"{res['retry_exhausted']} exhausted), "
                f"{res['hedges']} hedges, "
                f"{len(res['chaos_events'])} chaos events\n"
            )
        if result.overload is not None:
            out.write(_render_overload(result.overload) + "\n")
            if result.overload["ejections"]:
                out.write(
                    f"  routing: {result.overload['ejections']} pod ejections, "
                    f"{result.overload['probe_recoveries']} probe recoveries\n"
                )
        if result.cache is not None:
            out.write(_render_cache(result.cache) + "\n")
        if result.sharding is not None:
            out.write(_render_sharding(result.sharding) + "\n")
        if result.retrieval is not None:
            out.write(_render_retrieval(result.retrieval) + "\n")
        if result.scheduler is not None:
            out.write(_render_scheduler(result.scheduler) + "\n")
        if result.availability is not None:
            out.write(_render_availability(result.availability) + "\n")
        if result.tenancy is not None:
            out.write(_render_tenancy(result.tenancy) + "\n")
        if telemetry is not None:
            trace_out = args.trace_out
            if trace_out and len(jobs) > 1:
                # One trace file per job of a multi-job spec file.
                stem, dot, ext = trace_out.rpartition(".")
                trace_out = (
                    f"{stem}-{index}.{ext}" if dot else f"{trace_out}-{index}"
                )
            _emit_telemetry(telemetry, out, trace_out)
    return 0 if all_ok else 2


def _cmd_drill(args, out) -> int:
    from repro.core.drill import run_failure_drill

    if args.restart_after.lower() in ("none", "never"):
        restart_after = None
    else:
        try:
            restart_after = float(args.restart_after)
        except ValueError:
            raise SystemExit(
                f"--restart-after must be seconds or 'none': {args.restart_after!r}"
            )
    try:
        spec = ExperimentSpec(
            model=args.model,
            catalog_size=args.catalog,
            target_rps=args.rps,
            hardware=HardwareSpec(args.instance, args.replicas),
            duration_s=args.duration,
            sharding=args.sharding,
            routing=args.routing,
            zones=args.zones,
            seed=args.seed,
        )
        report = run_failure_drill(
            spec,
            SLO(p90_latency_ms=args.p90_limit),
            zones_down=args.zones_down,
            outage_at_s=args.outage_at,
            restart_after_s=restart_after,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    restart_text = (
        f"restart after {restart_after:g} s"
        if restart_after is not None
        else "no restart"
    )
    out.write(
        f"{spec.model} C={spec.catalog_size:,} on {args.instance} "
        f"x{args.replicas} @ {args.rps} req/s, zones={args.zones}\n"
        f"  outage: {report.zone} down at t={report.outage_at_s:g} s "
        f"({restart_text})\n"
    )
    out.write(f"{'window':>8} {'secs':>5} {'ok':>7} {'errors':>7} {'ok%':>7} {'p90_ms':>8}\n")
    for window in (report.before, report.during, report.after):
        p90 = f"{window.p90_ms:.2f}" if window.p90_ms is not None else "-"
        out.write(
            f"{window.name:>8} {window.seconds:>5} {window.ok:>7} "
            f"{window.errors:>7} {window.ok_fraction * 100:>6.1f}% {p90:>8}\n"
        )
    ttr = report.time_to_recovery_s
    out.write(
        f"  min coverage={report.min_coverage * 100:.1f}%, "
        f"TTR={'n/a' if ttr is None else f'{ttr:.1f} s'}\n"
        f"  survived: {report.survived}  recovered: {report.recovered}\n"
    )
    if report.result.availability is not None:
        out.write(_render_availability(report.result.availability) + "\n")
    return 0 if report.survived and report.recovered else 2


def _cmd_plan(args, out) -> int:
    try:
        cache, retrieval, tenants = (
            FEATURE_BY_FIELD[field].coerce(getattr(args, field))
            for field in ("cache", "retrieval", "tenants")
        )
        schedulers = [
            FEATURE_BY_FIELD["scheduler"].coerce(text)
            for text in args.scheduler or ()
        ]
    except ValueError as error:
        raise SystemExit(str(error))
    if tenants is not None:
        # Bin-packing dimension: cheapest co-located fleet vs. the
        # standalone per-tenant baseline (docs/tenancy.md).
        from repro.core.report import render_fleet_plan
        from repro.tenancy.placement import FleetPlanner

        if args.backend is not None:
            out.write(
                "note: --backend does not apply to fleet planning; "
                "running serially\n"
            )

        planner = FleetPlanner(
            runner=ExperimentRunner(),
            slo=SLO(p90_latency_ms=args.p90_limit),
            duration_s=args.duration,
            max_replicas=args.max_replicas,
        )
        plan = planner.plan(
            tenants, args.catalog, args.rps,
            instances=cloud_catalog(args.cloud),
        )
        out.write(render_fleet_plan(plan) + "\n")
        return 0 if plan.cheapest() is not None else 2
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    scenario = Scenario("custom", args.catalog, args.rps)
    try:
        shard_counts = tuple(
            int(s.strip()) for s in args.shards.split(",") if s.strip()
        )
    except ValueError:
        raise SystemExit(f"--shards must be comma-separated ints: {args.shards!r}")
    retrieval_options = (None,) if retrieval is None else (None, retrieval)
    if args.survive_zones < 0:
        raise SystemExit("--survive-zones must be >= 0")
    planner = DeploymentPlanner(
        runner=ExperimentRunner(),
        slo=SLO(p90_latency_ms=args.p90_limit),
        duration_s=args.duration,
        max_replicas=args.max_replicas,
        cache=cache,
        shard_counts=shard_counts or (1,),
        retrieval_options=retrieval_options,
        min_recall=args.min_recall,
        scheduler_options=(None,) + tuple(c for c in schedulers if c is not None),
        survive_zones=args.survive_zones,
        backend=_parse_backend(args),
    )
    instances = cloud_catalog(args.cloud)
    plans = planner.plan(scenario, models, instances=instances)
    out.write(
        render_scenario_table(
            {scenario.name: plans},
            models,
            instance_names=[i.name for i in instances],
        )
        + "\n"
    )
    return 0


def _cmd_compare(args, out) -> int:
    from repro.core.studies import compare_models

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    outcomes = compare_models(
        ExperimentRunner(),
        models,
        catalog_size=args.catalog,
        target_rps=args.rps,
        hardware=HardwareSpec(args.instance, args.replicas),
        duration_s=args.duration,
        p90_limit_ms=args.p90_limit,
    )
    out.write(
        f"C={args.catalog:,} @ {args.rps} req/s on {args.instance} "
        f"x{args.replicas} (p90 <= {args.p90_limit:.0f} ms)\n"
    )
    out.write(f"{'model':<12} {'p90@target ms':>14} {'errors':>8} {'SLO':>5}\n")
    for model in models:
        result = outcomes[model]
        if result is None:
            out.write(f"{model:<12} {'cannot deploy':>14} {'-':>8} {'no':>5}\n")
            continue
        p90 = result.p90_at_target_ms
        out.write(
            f"{model:<12} {p90 if p90 is None else f'{p90:.1f}':>14} "
            f"{result.error_requests:>8} "
            f"{'yes' if result.meets_slo(args.p90_limit) else 'no':>5}\n"
        )
    return 0


def _cmd_profile(args, out) -> int:
    from repro.models import ModelConfig, create_model
    from repro.tensor.profiler import profile_model

    model = create_model(args.model, ModelConfig.for_catalog(args.catalog))
    report = profile_model(model, instance_by_name(args.instance).device)
    out.write(f"{args.model} C={args.catalog:,}\n")
    out.write(report.render(max_rows=args.rows) + "\n")
    return 0


def _cmd_reproduce(args, out) -> int:
    from repro.core.reproduce import ReproduceConfig, reproduce

    config = ReproduceConfig(
        duration_s=args.duration,
        micro_requests=args.micro_requests,
        artifacts=tuple(
            artifact.strip() for artifact in args.artifacts.split(",") if artifact.strip()
        ),
    )
    report = reproduce(config)
    if args.out == "-":
        out.write(report + "\n")
    else:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        out.write(f"wrote report to {args.out}\n")
    return 0


def _cmd_workload(args, out) -> int:
    try:
        statistics = WorkloadStatistics(
            catalog_size=args.catalog,
            alpha_length=args.alpha_length,
            alpha_clicks=args.alpha_clicks,
        )
        log = SyntheticWorkloadGenerator(statistics, seed=args.seed).generate_clicks(
            args.clicks
        )
    except ValueError as error:
        raise SystemExit(str(error))
    lines = ["session_id,item_id,step"]
    lines.extend(
        f"{s},{i},{t}"
        for s, i, t in zip(log.session_ids, log.item_ids, log.steps)
    )
    if args.out == "-":
        for line in lines[: args.head + 1]:
            out.write(line + "\n")
        out.write(f"... {len(log):,} clicks, {log.num_sessions:,} sessions\n")
    else:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        out.write(f"wrote {len(log):,} clicks to {args.out}\n")
    return 0


_COMMANDS = {
    "models": _cmd_models,
    "infra-test": _cmd_infra,
    "micro": _cmd_micro,
    "run": _cmd_run,
    "drill": _cmd_drill,
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "profile": _cmd_profile,
    "reproduce": _cmd_reproduce,
    "workload": _cmd_workload,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
