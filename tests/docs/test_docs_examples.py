"""The docs-check harness itself, plus a live run over the real docs."""

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import docs_check  # noqa: E402  (needs the tools/ path above)


def md(tmp_path, body):
    path = tmp_path / "doc.md"
    path.write_text(textwrap.dedent(body))
    return path


class TestBlockExtraction:
    def test_languages_and_line_numbers(self, tmp_path):
        path = md(
            tmp_path,
            """\
            # Title

            ```python
            import json
            ```

            ```text
            not code
            ```

            ```bash
            python -m repro models
            ```
            """,
        )
        blocks = list(docs_check.fenced_blocks(path.read_text()))
        assert [(lang, line) for lang, line, _ in blocks] == [
            ("python", 4), ("text", 8), ("bash", 12),
        ]


class TestPythonBlocks:
    def test_valid_imports_pass(self):
        body = "from repro.obs import Telemetry\nimport repro.cli\n"
        assert docs_check.check_python_block(body, "doc.md:1") == []

    def test_missing_attribute_flagged(self):
        body = "from repro.obs import NoSuchThing\n"
        problems = docs_check.check_python_block(body, "doc.md:1")
        assert len(problems) == 1
        assert "NoSuchThing" in problems[0]

    def test_missing_module_flagged(self):
        problems = docs_check.check_python_block(
            "import repro.not_a_module\n", "doc.md:1"
        )
        assert len(problems) == 1

    def test_syntax_error_flagged(self):
        problems = docs_check.check_python_block("def broken(:\n", "doc.md:1")
        assert "does not parse" in problems[0]

    def test_body_is_not_executed(self):
        body = "import json\nraise RuntimeError('docs must not execute this')\n"
        assert docs_check.check_python_block(body, "doc.md:1") == []


class TestBashBlocks:
    def test_valid_cli_line_passes(self):
        body = "python -m repro run --model gru4rec --catalog 1000 --rps 50 --trace\n"
        assert docs_check.check_bash_block(body, "doc.md:1") == []

    def test_unknown_flag_flagged(self):
        body = "python -m repro run --model gru4rec --no-such-flag\n"
        problems = docs_check.check_bash_block(body, "doc.md:1")
        assert len(problems) == 1
        assert "--no-such-flag" in problems[0]

    def test_unknown_subcommand_flagged(self):
        problems = docs_check.check_bash_block(
            "python -m repro frobnicate\n", "doc.md:1"
        )
        assert len(problems) == 1

    def test_backslash_continuations_joined(self):
        body = (
            "python -m repro run --model gru4rec --catalog 1000 \\\n"
            "    --rps 50 --instance GPU-T4\n"
        )
        assert docs_check.check_bash_block(body, "doc.md:1") == []

    def test_placeholder_lines_skipped(self):
        body = "python -m repro run --model <name> ...\n"
        assert docs_check.check_bash_block(body, "doc.md:1") == []

    def test_non_repro_lines_ignored(self):
        body = "pytest tests/\npython setup.py develop\n"
        assert docs_check.check_bash_block(body, "doc.md:1") == []


class TestFeatureRows:
    def test_real_readme_names_every_accepting_command(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert docs_check.check_feature_rows(text, "README.md") == []

    def test_missing_command_and_missing_row_flagged(self):
        text = (REPO_ROOT / "README.md").read_text()
        lines = [
            line for line in text.splitlines() if not line.startswith("| `--retry")
        ]
        lines = [
            line.replace("| `run`, `drill` |", "| `run` |")
            if line.startswith("| `--routing") else line
            for line in lines
        ]
        problems = docs_check.check_feature_rows("\n".join(lines), "README.md")
        assert problems == [
            "README.md: no flag-table row for --retry names `infra-test`, "
            "which accepts it",
            "README.md: no flag-table row for --retry names `run`, "
            "which accepts it",
            "README.md: no flag-table row for --routing names `drill`, "
            "which accepts it",
        ]


def shipped_docs():
    paths = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]
    return [path.read_text() for path in paths]


class TestCatalog:
    def test_every_emitted_name_is_documented(self):
        found = docs_check.emitted_names(docs_check.source_files())
        assert "server_queue_depth" in found["instrument"]
        assert {"request", "http_respond", "exec_task"} <= set(found["span"])
        assert "zone_outage" in docs_check.chaos_span_names()
        assert docs_check.check_catalog(shipped_docs(), docs_check.source_files()) == []

    def test_identifiers_inside_inline_code_count(self):
        documented = docs_check.documented_identifiers(
            ["the `chaos_events_total{kind=...}` counter\n```\n`fenced_only`\n```\n"]
        )
        assert "chaos_events_total" in documented
        assert "fenced_only" not in documented

    def test_planted_undocumented_names_fail(self, tmp_path, monkeypatch, capsys):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "def emit(telemetry, trace):\n"
            "    telemetry.metrics.counter('planted_requests_total', unit='requests')\n"
            "    trace.record('planted_stage', 0, 0.0, 1.0)\n"
            "    trace.begin('planted_open', 1)\n"
            "    trace.record(name_from_a_variable, 0, 0.0, 1.0)\n"
        )
        sources = docs_check.source_files() + [planted]
        assert docs_check.check_catalog(shipped_docs(), sources) == [
            f"{planted}:2: instrument 'planted_requests_total' is not "
            "backticked in docs/*.md or README.md",
            f"{planted}:4: span 'planted_open' is not backticked in "
            "docs/*.md or README.md",
            f"{planted}:3: span 'planted_stage' is not backticked in "
            "docs/*.md or README.md",
        ]
        monkeypatch.setattr(docs_check, "source_files", lambda: sources)
        assert docs_check.main() == 1
        assert "planted_requests_total" in capsys.readouterr().out


class TestReferences:
    def test_missing_path_and_make_target_flagged(self):
        text = (
            "See `tests/golden/test_trace_digests.py::test_run_digests`,\n"
            "`core/spec.py` and `docs/no_such_page.md`.\n"
            "Run `make docs-check`, then `make no-such-target`.\n"
            "```\n`fenced/only.py` and `make fenced`\n```\n"
        )
        targets = docs_check.makefile_targets()
        assert docs_check.check_references(text, "doc.md", targets) == [
            "doc.md:2: no file docs/no_such_page.md",
            "doc.md:3: no Makefile target 'no-such-target'",
        ]

    def test_missing_dotted_name_flagged(self):
        text = (
            "`repro.core.spec`, `repro.serving.batching.BatchingConfig` and\n"
            "`repro.serving.batching.no_such_helper`; `python -m repro run`.\n"
        )
        assert docs_check.check_references(text, "doc.md", set()) == [
            "doc.md:2: no name repro.serving.batching.no_such_helper",
        ]


class TestStageContract:
    ROWS = {
        "sent": "| `sent` | send | intake | hop |",
        "shard_fanout": "| `shard_fanout` | legs out | legs back | sharded |",
        "shard_merge": "| `shard_merge` | legs back | merged | sharded |",
        "queued": "| `queued` | intake | pickup | FIFO |",
        "batch_assembled": "| `batch_assembled` | window | flush | GPU |",
        "inference": "| `inference` | start | end | device |",
        "http_respond": "| `http_respond` | end | handed | HTTP |",
    }

    def table(self, stages):
        rows = "\n".join(self.ROWS[stage] for stage in stages)
        return (
            "Stage contract, in pipeline order:\n\n"
            "| span | opens | closes | notes |\n|---|---|---|---|\n"
            f"{rows}\n\nThe `shard_merge` span, after the table.\n"
        )

    def test_missing_stage_flagged(self):
        stages = [stage for stage in self.ROWS if stage != "shard_merge"]
        assert docs_check.check_stage_contract(self.table(stages), "doc.md") == [
            "doc.md: stage 'shard_merge' has no row in the 'Stage contract' table",
        ]

    def test_shipped_contract_names_every_stage(self):
        assert docs_check.check_stage_contract(self.table(self.ROWS), "doc.md") == []
        text = docs_check.STAGE_CONTRACT_DOC.read_text()
        assert docs_check.check_stage_contract(text, "observability.md") == []


class TestRealDocs:
    def test_shipped_documentation_is_clean(self, capsys):
        """The committed docs/README examples must validate — the same
        check ``make docs-check`` (and thus ``make test``) runs."""
        assert docs_check.main() == 0
        output = capsys.readouterr().out
        assert "0 problem(s)" in output

    def test_main_reports_failures(self, tmp_path, capsys):
        path = md(
            tmp_path,
            """\
            ```python
            from repro.obs import DoesNotExist
            ```
            """,
        )
        assert docs_check.main([str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
