"""The CLI's text surface: help output, flag-over-spec-file overrides and
the exact messages of rejected flag values and spec files.

The help snapshots in ``tests/core/cli_help/`` pin every subcommand's
``--help`` byte for byte. After an intended help change, rewrite them
from the repository root with::

    for c in "" models infra-test micro run drill plan compare profile reproduce workload; do COLUMNS=80 PYTHONPATH=src python -m repro $c --help > "tests/core/cli_help/${c:-repro}.txt"; done
"""

import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.cli
from repro.core.spec import ExperimentSpec, HardwareSpec
from repro.core.specfile import spec_from_dict

HELP_DIR = Path(__file__).parent / "cli_help"
SRC = Path(__file__).resolve().parents[2] / "src"

COMMANDS = (
    "models", "infra-test", "micro", "run", "drill", "plan", "compare",
    "profile", "reproduce", "workload",
)


class _Stop(Exception):
    """Raised by the recording runner so no simulation runs."""


@pytest.fixture
def recorded(monkeypatch):
    """The specs ``repro run`` hands its runner, which stops at the first."""
    specs = []

    class RecordingRunner:
        seed = 0

        def __init__(self, *args, **kwargs):
            pass

        def run(self, spec, telemetry=None):
            specs.append(spec)
            raise _Stop

    monkeypatch.setattr(repro.cli, "ExperimentRunner", RecordingRunner)
    return specs


def exit_message(argv):
    """The SystemExit payload of ``repro <argv>``."""
    with pytest.raises(SystemExit) as info:
        repro.cli.main(argv)
    return info.value.code


class TestHelpSnapshots:
    @pytest.mark.parametrize("command", ("",) + COMMANDS)
    def test_help_is_byte_identical(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        with pytest.raises(SystemExit) as info:
            repro.cli.main(argv)
        assert info.value.code == 0
        expected = (HELP_DIR / f"{command or 'repro'}.txt").read_text()
        assert capsys.readouterr().out == expected


RUN = ["run", "--model", "stamp", "--catalog", "1000", "--rps", "10"]

#: What every spec file below sets: the dimensions that compose with all.
COMMON = {
    "model": "stamp",
    "catalog_size": 1000,
    "target_rps": 10,
    "duration_s": 5,
    "retry": "max=2",
    "chaos": "crash@1",
    "slo_deadline_s": 0.5,
    "admission": "codel",
    "fallback": "topk=3",
    "routing": "rr,eject=2",
    "cache": "lru,capacity=16",
    "zones": 2,
}

#: The spec files the override cases start from. Together they set every
#: dimension, each file as many as compose (repro.core.spec.CONFLICTS).
SPEC_DOCUMENTS = {
    "sharded": {**COMMON, "shards": "2", "retrieval": "ivf:nlist=4"},
    "scheduler": {**COMMON, "retrieval": "ivf:nlist=4", "scheduler": "cpu=1"},
    "fleet": {**COMMON, "tenants": "a=stamp:1"},
}


def document_for(field):
    """The spec file that an override of ``field`` composes with."""
    return SPEC_DOCUMENTS[{"scheduler": "scheduler", "tenants": "fleet"}.get(
        field, "sharded"
    )]


#: (flags, spec field, the value ExperimentSpec is built from).
OVERRIDES = [
    (["--retry", "max=5,hedge=0.1"], "retry", "max=5,hedge=0.1"),
    (["--retry"], "retry", ""),
    (["--chaos", "slow@3:factor=2"], "chaos", "slow@3:factor=2"),
    (["--slo-deadline", "0.25"], "slo_deadline_s", 0.25),
    (["--admission", "lifo,depth=8"], "admission", "lifo,depth=8"),
    (["--fallback", "budget=0.001"], "fallback", "budget=0.001"),
    (["--routing", "lor"], "routing", "lor"),
    (["--cache", "lfu,capacity=64"], "cache", "lfu,capacity=64"),
    (["--cache", "capacity=0"], "cache", "capacity=0"),
    (["--shards", "4,partial=off"], "sharding", "4,partial=off"),
    (["--shards", "1"], "sharding", "1"),
    (["--retrieval", "ivf:nlist=8"], "retrieval", "ivf:nlist=8"),
    (["--retrieval", "exact"], "retrieval", "exact"),
    (["--scheduler", "cpu=2"], "scheduler", "cpu=2"),
    (["--scheduler", "off"], "scheduler", "off"),
    (["--zones", "3"], "zones", 3),
    (["--tenants", "b=narm:1"], "tenants", "b=narm:1"),
    # An empty fleet switches the spec file's fleet off.
    (["--tenants", ""], "tenants", ""),
]


class TestFlagsOverrideSpecFile:
    @pytest.mark.parametrize("flags, field, value", OVERRIDES)
    def test_flag_overrides_spec_file(self, flags, field, value, recorded, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document_for(field)))
        from_file, _slo = spec_from_dict(document_for(field))
        with pytest.raises(_Stop):
            repro.cli.main(["run", "--spec", str(path)] + flags)
        assert recorded == [replace(from_file, **{field: value})]

    @pytest.mark.parametrize("flags, field, value", OVERRIDES)
    def test_flag_builds_spec(self, flags, field, value, recorded):
        with pytest.raises(_Stop):
            repro.cli.main(RUN + flags)
        expected = ExperimentSpec(
            model="stamp", catalog_size=1000, target_rps=10,
            hardware=HardwareSpec("CPU", 1), duration_s=120.0,
            **{field: value},
        )
        assert recorded == [expected]

    def test_fleet_names_the_anchor_model(self, recorded):
        with pytest.raises(_Stop):
            repro.cli.main(
                ["run", "--catalog", "1000", "--rps", "10",
                 "--tenants", "b=narm:1;c=stamp:1"]
            )
        assert recorded[0].model == "narm"

    def test_no_flags_keep_the_spec_file(self, recorded, tmp_path):
        path = tmp_path / "spec.json"
        for document in SPEC_DOCUMENTS.values():
            path.write_text(json.dumps(document))
            with pytest.raises(_Stop):
                repro.cli.main(["run", "--spec", str(path)])
        assert recorded == [
            spec_from_dict(document)[0] for document in SPEC_DOCUMENTS.values()
        ]


INFRA = ["infra-test"]
PLAN = ["plan", "--catalog", "1000", "--rps", "10"]

INT_ERROR = "invalid literal for int() with base 10: 'x'"
CHAOS_ERROR = (
    "bad chaos event 'bogus@1'; expected kind@seconds with kind in "
    "['crash', 'netdelay', 'slow', 'storm', 'zone']"
)
ADMISSION_ERROR = "unknown admission discipline 'sjf'; known: ['fifo', 'lifo', 'codel']"
FALLBACK_ERROR = "bad fallback spec item 'x'; expected key=value"
CACHE_ERROR = "unknown cache policy 'bogus'; choose from lru, lfu, segmented"
SHARDS_ERROR = "bad shard count 'x'; expected an integer"
RETRIEVAL_ERROR = "unknown retrieval kind 'hnsw'; expected one of exact, ivf"
SCHEDULER_ERROR = (
    "unknown scheduler spec key 'pods'; known: ['batch', 'cpu', 'epoch', "
    "'instance', 'linger', 'q', 'short', 'slack', 'target', 'tol', 'tune']"
)
TENANTS_ERROR = (
    "fleet segment 'bogus' is neither a tenant (name=model:weight) nor a "
    "fleet option (fair=N)"
)

BAD_VALUES = [
    (RUN, "--retry", "max=x", INT_ERROR),
    (RUN, "--chaos", "bogus@1", CHAOS_ERROR),
    (RUN, "--slo-deadline", "0", "--slo-deadline must be positive"),
    (RUN, "--admission", "sjf", ADMISSION_ERROR),
    (RUN, "--fallback", "x", FALLBACK_ERROR),
    (RUN, "--routing", "p2c", "unknown routing discipline 'p2c'; known: ['rr', 'lor']"),
    (RUN, "--cache", "bogus", CACHE_ERROR),
    (RUN, "--shards", "x", SHARDS_ERROR),
    (RUN, "--retrieval", "hnsw", RETRIEVAL_ERROR),
    (RUN, "--scheduler", "pods=3", SCHEDULER_ERROR),
    (RUN, "--zones", "0", "--zones must be >= 1"),
    (RUN, "--tenants", "bogus", TENANTS_ERROR),
    (INFRA, "--retry", "max=x", INT_ERROR),
    (INFRA, "--chaos", "bogus@1", CHAOS_ERROR),
    (INFRA, "--slo-deadline", "0", "--slo-deadline must be positive"),
    (INFRA, "--admission", "sjf", ADMISSION_ERROR),
    (INFRA, "--fallback", "x", FALLBACK_ERROR),
    (INFRA, "--cache", "bogus", CACHE_ERROR),
    (INFRA, "--shards", "x", SHARDS_ERROR),
    (INFRA, "--retrieval", "hnsw", RETRIEVAL_ERROR),
    (INFRA, "--tenants", "bogus", TENANTS_ERROR),
    (PLAN, "--cache", "bogus", CACHE_ERROR),
    (PLAN, "--retrieval", "hnsw", RETRIEVAL_ERROR),
    (PLAN, "--scheduler", "pods=3", SCHEDULER_ERROR),
    (PLAN, "--tenants", "bogus", TENANTS_ERROR),
]


class TestBadFlagValues:
    @pytest.mark.parametrize(
        "command, flag, value, message", BAD_VALUES,
        ids=[f"{c[0]}{f}" for c, f, _v, _m in BAD_VALUES],
    )
    def test_exact_message(self, command, flag, value, message, recorded):
        assert exit_message(command + [flag, value]) == message
        assert recorded == []


ACTIX_GUARDS = [
    (["--chaos", "crash@1"], "--chaos needs the actix server's fault hooks"),
    (["--admission"], "--admission/--fallback are actix-server features"),
    (["--fallback"], "--admission/--fallback are actix-server features"),
    (["--cache"], "--cache is an actix-server feature"),
    (["--cache", "lru,capacity=16"], "--cache is an actix-server feature"),
    (["--shards", "2"], "--shards is an actix-server feature"),
    (["--retrieval"], "--retrieval is an actix-server feature"),
    (["--tenants", "a=stamp:1"], "--tenants is an actix-server feature"),
]


class TestInfraActixGuards:
    @pytest.mark.parametrize("flags, message", ACTIX_GUARDS)
    def test_actix_only_flag_on_torchserve(self, flags, message):
        assert exit_message(["infra-test", "--server", "torchserve"] + flags) == message

    def test_off_values_pass_the_guards(self):
        out = io.StringIO()
        code = repro.cli.main(
            ["infra-test", "--server", "torchserve", "--rps", "10",
             "--duration", "1", "--cache", "capacity=0", "--shards", "1",
             "--retrieval", "exact", "--tenants", ""],
            out=out,
        )
        assert code == 0
        assert "torchserve: 1/1 ok" in out.getvalue()


class TestRunsWithoutA200:
    """A run that served no 200 has no latency percentiles to print."""

    def test_run_prints_na(self):
        out = io.StringIO()
        code = repro.cli.main(
            ["run", "--model", "gru4rec", "--catalog", "1000", "--rps", "10",
             "--duration", "5", "--instance", "CPU",
             "--chaos", "crash@0:pod=0:restart=none"],
            out=out,
        )
        assert code == 2
        assert "  ok=0 errors=21 " in out.getvalue()
        assert "  p50/p90/p99=n/a, p90@target=n/a\n" in out.getvalue()

    def test_infra_test_prints_na(self):
        out = io.StringIO()
        code = repro.cli.main(
            ["infra-test", "--server", "actix", "--rps", "50",
             "--duration", "3", "--chaos", "crash@0:restart=none"],
            out=out,
        )
        assert code == 0
        assert "actix: 0/52 ok, 52 errors (100.0%), p90=n/a\n" in out.getvalue()


def run_repro(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


class TestSpecLevelErrorsExitCleanly:
    """Spec-level errors exit with status 1 and their message alone."""

    @pytest.fixture
    def spec_file(self, tmp_path):
        def write(**entries):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(
                {"model": "stamp", "catalog_size": 1000, "target_rps": 10,
                 **entries}
            ))
            return str(path)
        return write

    def assert_exits(self, completed, message):
        assert completed.returncode == 1
        assert completed.stderr == message + "\n"

    def test_bad_feature_value_in_spec_file(self, spec_file):
        self.assert_exits(
            run_repro("run", "--spec", spec_file(cache="bogus")), CACHE_ERROR
        )

    def test_unknown_spec_file_key(self, spec_file):
        completed = run_repro("run", "--spec", spec_file(bogus=1))
        self.assert_exits(
            completed,
            "unknown spec keys: ['bogus']; known: ['admission', 'cache', "
            "'catalog_size', 'chaos', 'duration_s', 'execution', 'fallback', "
            "'hardware', 'model', 'retrieval', 'retry', 'routing', "
            "'scheduler', 'seed', 'shards', 'slo', 'slo_deadline_s', "
            "'target_rps', 'tenants', 'top_k', 'workload', 'zones']",
        )

    def test_zero_catalog(self):
        self.assert_exits(
            run_repro("run", "--model", "stamp", "--catalog", "0", "--rps", "10"),
            "catalog_size and target_rps must be positive",
        )

    def test_zero_replicas(self):
        self.assert_exits(
            run_repro("run", "--model", "stamp", "--catalog", "1000",
                      "--rps", "10", "--replicas", "0"),
            "replicas must be >= 1",
        )

    def test_conflicting_run_flags(self):
        self.assert_exits(
            run_repro(*RUN, "--scheduler", "cpu=1", "--shards", "2"),
            "the heterogeneous scheduler does not compose with catalog "
            "sharding: CPU pods must hold the full catalog to answer any "
            "request the dispatcher sends them",
        )

    def test_conflicting_infra_test_flags(self):
        self.assert_exits(
            run_repro("infra-test", "--tenants", "a=stamp:1", "--shards", "2"),
            "a tenant fleet does not compose with catalog sharding: every "
            "pod must host every tenant's full catalog",
        )

    def test_conflicting_job_stops_the_file_before_its_first_job(self, tmp_path):
        path = tmp_path / "jobs.json"
        job = {"model": "stamp", "catalog_size": 1000, "target_rps": 10,
               "duration_s": 5}
        path.write_text(json.dumps(
            [job, {**job, "tenants": "a=stamp:1", "retrieval": "ivf"}]
        ))
        completed = run_repro("run", "--spec", str(path))
        self.assert_exits(
            completed,
            "a tenant fleet does not compose with ANN retrieval: per-tenant "
            "index builds are not modeled",
        )
        assert completed.stdout == ""

    def test_unreadable_spec_path(self, tmp_path):
        path = str(tmp_path / "missing.json")
        self.assert_exits(
            run_repro("run", "--spec", path),
            f"cannot read --spec {path!r}: "
            f"[Errno 2] No such file or directory: {path!r}",
        )
