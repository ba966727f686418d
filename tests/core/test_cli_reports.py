"""The report sections of ``repro run``, ``repro infra-test``, ``repro
drill`` and ``repro plan --tenants``: one feature-heavy command line per
command, run in process.

Each test asserts the shape of every section its flags switch on (the
labels, the fields and their order), not the numbers: the golden digests
in ``tests/golden/`` pin what the runs compute.
"""

import hashlib
import io
import json
import re

import repro.cli

N = r"\d+"
F = r"\d+(?:\.\d+)?"
SPARK = r"\|[▁▂▃▄▅▆▇█]+\|"


def report(*argv):
    """The exit code and the text ``repro <argv>`` prints."""
    out = io.StringIO()
    code = repro.cli.main(list(argv), out=out)
    return code, out.getvalue()


def assert_lines(text, *patterns):
    """Every pattern matches one whole line of ``text``."""
    lines = text.splitlines()
    for pattern in patterns:
        assert any(re.fullmatch(pattern, line) for line in lines), pattern


class TestRunReport:
    def test_every_section_of_a_feature_heavy_run(self, tmp_path):
        trace_out = tmp_path / "trace.json"
        code, text = report(
            "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "200",
            "--duration", "4", "--instance", "GPU-T4", "--replicas", "2",
            "--execution", "eager", "--shards", "2", "--zones", "2",
            "--cache", "capacity=256,remote=512",
            "--retry", "max=2,base=0.01,hedge=0.004",
            "--chaos", "crash@1:pod=0:restart=1",
            "--admission", "slack=0.001", "--fallback",
            "--routing", "lor,eject=3", "--slo-deadline", "0.05",
            "--retrieval", "ivf:nlist=16,nprobe=4",
            "--trace-out", str(trace_out),
        )
        assert code == 2  # four seconds never reach the target rate
        assert_lines(
            text,
            rf"  resilience: {N} retries \({N} recovered, {N} exhausted\), "
            rf"[1-9]\d* hedges, 1 chaos events",
            rf"  overload: {N} shed \(deadline={N} codel={N} queue={N}\), "
            rf"{N} degraded 200s \({F}% of ok(, p90={F} ms)?\)",
            rf"  cache\[lru,capacity=256,remote=512\]: {F}% hit rate "
            rf"\(local={N} remote={N} miss={N}\), {N} coalesced, {N} evicted, "
            rf"p90 hit/miss={F}/{F} ms",
            rf"  sharding\[2\]: {N} fan-outs, {N} merged 200s, {N} partial, "
            rf"{N} failed, mean coverage={F}%",
            rf"  retrieval\[ivf:nlist=16,nprobe=4\]: {N} ANN queries, "
            rf"{N} lists probed, recall@k={F}, index build={F} s/pod",
            rf"  zones\[2\]: pods z0={N} z1={N}, {N} cross-zone legs, "
            rf"{N} outage\(s\)",
            rf"per-stage latency breakdown \({N} ok requests\)",
            r"stage +count +mean ms +p90 ms +share",
            rf"end-to-end +{N} +{F} +{F} +100\.0%",
            rf"gauge timeline \({N} samples, t={N}\.\.{N}s, every 1s\)",
            rf"service_ready_pods +{SPARK} min={N} max={N}",
            rf"wrote {N} spans to {re.escape(str(trace_out))}",
        )
        written = int(re.search(rf"wrote ({N}) spans", text).group(1))
        spans = json.loads(trace_out.read_text())["spans"]
        assert len(spans) == written
        # A hedged request finishes its open hedge span when it settles.
        assert any(span["attrs"].get("hedged") for span in spans)
        assert [span for span in spans if span["end"] is None] == []

    def test_scheduler_section(self):
        code, text = report(
            "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "200",
            "--duration", "4", "--instance", "GPU-T4", "--execution", "eager",
            "--scheduler", "cpu=1,epoch=1",
        )
        assert code == 2
        assert_lines(
            text,
            rf"  scheduler\[epoch=1\]: {N} cpu / {N} gpu \({N} short, "
            rf"{N} tight-slack\); tuner {N} moves/{N} epochs -> "
            rf"batch {N}/{F} ms( \(converged\))?",
        )

    def test_tenant_rows(self):
        fleet = "a=stamp:3,slo=200,rollout=1;b=stamp:1,canary=0.25;m=stamp:0.2,shadow"
        code, text = report(
            "run", "--model", "stamp", "--catalog", "2000", "--rps", "100",
            "--duration", "4", "--execution", "eager", "--tenants", fleet,
        )
        assert code == 2
        row = rf"\(stamp\): {N} req \({F} rps\), ok={N} err={N} shed={N}, p90={F} ms"
        assert_lines(
            text,
            rf"  tenants\[{re.escape(fleet)}\]:",
            rf"    a{row} slo=200ms\[(met|MISSED)\]",
            rf"    b{row}, [1-9]\d* canary",
            rf"    m\(stamp, shadow\): [1-9]\d* mirrored, {N} scored, {N} shed "
            r"\(0 client-visible\)",
            rf"    rollout\[a\]: {N} pods updated, completed=(True|False)",
        )


class TestTraceFlags:
    """``--trace`` keeps no span rows and ``--trace-out`` keeps them for the
    dump: both print the same breakdown, and the dump is the one a store
    that always kept rows wrote."""

    ARGV = (
        "run", "--model", "gru4rec", "--catalog", "2000", "--rps", "200",
        "--duration", "4", "--instance", "GPU-T4", "--shards", "2",
        "--execution", "eager",
    )
    #: sha256 of this command's ``--trace-out`` dump when every traced run
    #: kept its rows.
    DUMP_SHA256 = "5ecda9a7bd50c26cd6cab90b97ce1a966469a9bdb66bf56c259cb47b972102d9"

    def test_trace_prints_what_trace_out_prints(self, tmp_path):
        dump = tmp_path / "trace.json"
        traced = report(*self.ARGV, "--trace")
        dumped = report(*self.ARGV, "--trace-out", str(dump))
        assert dumped == (traced[0], traced[1] + f"wrote 4214 spans to {dump}\n")
        assert_lines(traced[1], rf"shard fan-out\s+{N} .*", rf"end-to-end\s+{N} .*")
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.DUMP_SHA256


class TestInfraTestReport:
    def test_feature_sections(self):
        code, text = report(
            "infra-test", "--server", "actix", "--rps", "2000",
            "--duration", "3", "--admission", "slack=0.01", "--fallback",
            "--slo-deadline", "0.05", "--cache", "capacity=256",
            "--retrieval", "ivf:nlist=16,nprobe=4", "--retry",
            "--chaos", "slow@1:factor=4:dur=1",
        )
        assert code == 0
        assert_lines(
            text,
            r" +sec +offered +ok +errors +p90_ms +batch",
            rf"actix: {N}/{N} ok, {N} errors \({F}%\), p90={F} ms",
            rf"  resilience: {N} retries, {N} hedges, 1 chaos events",
            rf"  overload: {N} shed \(deadline={N} codel={N} queue={N}\), "
            rf"{N} degraded 200s \({F}% of ok(, p90={F} ms)?\)",
            rf"  cache\[lru,capacity=256\]: {F}% hit rate "
            rf"\(local={N} remote={N} miss={N}\), {N} coalesced, {N} evicted, "
            rf"p90 hit/miss={F}/{F} ms",
            rf"  retrieval\[ivf:nlist=16,nprobe=4\]: {N} ANN queries, "
            rf"{N} lists probed",
        )


class TestDrillReport:
    def test_windows_and_verdict(self):
        code, text = report(
            "drill", "--model", "gru4rec", "--catalog", "2000", "--rps", "100",
            "--instance", "GPU-T4", "--replicas", "2", "--duration", "6",
        )
        assert code == 2  # six seconds never reach the zone's restart
        window = rf" +{N} +{N} +{N} +{F}% +({F}|-)"
        assert_lines(
            text,
            r"gru4rec C=2,000 on GPU-T4 x2 @ 100 req/s, zones=2",
            r"  outage: z0 down at t=2 s \(restart after 20 s\)",
            r"  window  secs      ok  errors     ok%   p90_ms",
            rf"  before{window}",
            rf"  during{window}",
            rf"   after{window}",
            rf"  min coverage={F}%, TTR={F} s",
            r"  survived: (True|False)  recovered: (True|False)",
            rf"  zones\[2\]: pods z0={N} z1={N}, {N} cross-zone legs, "
            rf"1 outage\(s\), TTR={F} s",
        )


class TestFleetPlanReport:
    def test_fleet_plan_and_standalone_baseline(self):
        """At 15 s both tenants' ramps reach their rates, so each one alone
        has a feasible plan and the baseline has a total. (At 10 s tenant
        ``a``'s ramp peaks at 40 of its 45 rps, and its standalone plan
        reads infeasible.)"""
        code, text = report(
            "plan", "--tenants", "a=stamp:3,slo=80;b=narm:1",
            "--catalog", "2000", "--rps", "60", "--duration", "15",
            "--max-replicas", "2",
        )
        assert code == 0
        instance = r"(CPU|GPU-T4|GPU-A100)"
        cost = r"\$[\d,]+"
        head, rows, tail = (
            [
                r"fleet: fleet of 2: a\(stamp, 3, slo 80ms\), b\(narm, 1\)",
                r"  catalog=2,000 target=60 req/s",
                r"  Instance   Repl  Cost/month  per-tenant p90/slo \(ms\)",
            ],
            rf"  [ *]{instance} +{N} +{cost}  a={F}/80 b={F}",
            [
                r"  standalone baseline \(one deployment per tenant\):",
                rf"    a: {instance} x{N} {cost}",
                rf"    b: {instance} x{N} {cost}",
                rf"    total {cost}",
                rf"  co-location (saves|adds) {cost}/month vs isolated deployments",
            ],
        )
        lines = text.splitlines()
        options = lines[len(head):-len(tail)]
        assert len(options) == 3
        assert sum(line.startswith("  *") for line in options) == 1
        for line, pattern in zip(lines, head + [rows] * len(options) + tail):
            assert re.fullmatch(pattern, line), line
