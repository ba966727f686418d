"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "5",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*extra):
    proc = run_bench(*extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


@pytest.fixture(scope="module")
def untraced():
    return result("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return result("--trace", "1")


def test_benchmark_json_matches_the_benchmark():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    reference = {w.name: w.why for w in workloads.WORKLOADS.values() if w.reference}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == reference
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= setup[0]["bound"]
    for entry in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])
        assert len(entry.get("why", "")) <= 200


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    final, record = untraced
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in final["metrics"].values())
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for field in ("commit", "src_sha256", "nproc", "python", "numpy", "seed", "traced"):
        assert field in record
    assert record["traced"] is False


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    final, record = traced
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    # The traced run reproduces the untraced run's golden outputs.
    assert final["correct"] and final["failed"] == 0
    assert record["traced"] is True
    for name, unit in expected.items():
        if unit in ("s", "us"):
            assert final["metrics"][name]["value"] > 0, name


def test_every_ratio_is_printed_with_its_base(traced):
    final, record = traced
    metrics = final["metrics"]
    ratios = {name for name, unit in layers.PER_LAYER if unit in ("ratio", "us")}
    assert ratios == set(layers.RATIO_BASES)
    for ratio, base in layers.RATIO_BASES.items():
        assert ratio in metrics and base in metrics
    assert record["ratio_bases"] == layers.RATIO_BASES


def test_counts_repeat_exactly_between_traced_runs(traced):
    again, _record = result("--trace", "1")
    counts = {
        name for name, unit in layers.PER_LAYER if unit == "count"
    }
    first = {n: traced[0]["metrics"][n]["value"] for n in counts}
    assert first == {n: again["metrics"][n]["value"] for n in counts}
    assert first["loadgen.sent"] == first["metrics.ok"] > 0


def test_tampered_fingerprint_fails_the_iteration():
    golden = worker.load_golden("smoke", 0)
    session = workloads.Session(workloads.WORKLOADS["smoke"], 0)
    clean = worker.Checked(session, golden)
    clean.run()
    assert clean.failed == 0 and clean.mismatches == []

    tampered = dict(golden, p90_ms=repr(float(golden["p90_ms"]) * 1.001))
    checked = worker.Checked(session, tampered)
    checked.run()
    assert checked.mismatches == [["p90_ms"]]
    assert checked.failed == checked.attempted == golden["total"]


def test_goldens_cover_every_selectable_seed():
    golden = json.loads(worker.GOLDEN_PATH.read_text())
    seeds = {str(s) for s in range(workloads.SEED_FOLD)} | {str(workloads.HELD_OUT_SEED)}
    for name in workloads.WORKLOADS:
        assert set(golden[name]) == seeds, name
        assert all(entry["errors"] == 0 for entry in golden[name].values())
    assert workloads.input_seed(123) == workloads.input_seed(123) == 123 % workloads.SEED_FOLD
    assert workloads.input_seed(123, held_out=True) == workloads.HELD_OUT_SEED
    assert workloads.HELD_OUT_SEED not in range(workloads.SEED_FOLD)


def test_import_log_is_attributed_to_the_importing_layer():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy",
            "import time:        50 |        150 | repro.tensor",
            "import time:       300 |        300 |     scipy",
            "import time:        10 |        310 |   repro.workload.synthetic",
            "import time:         5 |        315 | repro.workload",
            "import time:         7 |          7 | json",
            "import time:         3 |          3 |   decimal",
            "import time:         2 |          5 | repro",
        ]
    )
    seconds, total = layers.import_self_times(log)
    assert seconds["tensor"] == pytest.approx(150e-6)
    assert seconds["workload"] == pytest.approx(315e-6)
    # Under the top-level package: ``other``; outside any repro tree: ignored.
    assert seconds["other"] == pytest.approx(5e-6)
    assert total == pytest.approx(470e-6)


def test_fails_without_printing_in_a_bare_directory(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
