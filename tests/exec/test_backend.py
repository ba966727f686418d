"""Backend mechanics: ordered deterministic merge, error propagation,
memo shipping, and the exec_task observability wiring."""

import pytest

from repro.core.registry import AssetRegistry
from repro.exec import (
    ExecError,
    ExecTask,
    MultiprocessingBackend,
    SerialBackend,
    TaskOutcome,
    task_kind,
)
from repro.obs import Telemetry

# Toy task kinds, module-level so fork()ed pool workers inherit them.


@task_kind("test_square")
def _square(payload, context):
    return payload["x"] ** 2, None


@task_kind("test_boom")
def _boom(payload, context):
    raise RuntimeError(f"boom on {payload['x']}")


def squares(n):
    return [
        ExecTask(key=("sq", i), kind="test_square", payload={"x": i})
        for i in range(n)
    ]


class TestSerialBackend:
    def test_values_in_submission_order(self):
        outcomes = SerialBackend().run_tasks(squares(5))
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]
        assert [o.key for o in outcomes] == [("sq", i) for i in range(5)]
        assert all(o.ok and o.worker == "parent" for o in outcomes)

    def test_duplicate_keys_rejected(self):
        tasks = squares(2) + [
            ExecTask(key=("sq", 0), kind="test_square", payload={"x": 7})
        ]
        with pytest.raises(ValueError, match="duplicate"):
            SerialBackend().run_tasks(tasks)

    def test_error_raises_with_key_and_traceback(self):
        tasks = squares(1) + [
            ExecTask(key=("bad",), kind="test_boom", payload={"x": 1})
        ]
        with pytest.raises(ExecError, match="boom on 1") as excinfo:
            SerialBackend().run_tasks(tasks)
        assert excinfo.value.key == ("bad",)

    def test_error_captured_when_not_raising(self):
        tasks = [
            ExecTask(key=("bad",), kind="test_boom", payload={"x": 2})
        ] + squares(1)
        outcomes = SerialBackend().run_tasks(tasks, raise_on_error=False)
        assert not outcomes[0].ok
        assert "boom on 2" in outcomes[0].error
        assert outcomes[1].value == 0  # later tasks still ran

    def test_unknown_kind_is_an_error(self):
        task = ExecTask(key=("k",), kind="no_such_kind")
        with pytest.raises(ExecError, match="no_such_kind"):
            SerialBackend().run_tasks([task])


class TestMultiprocessingBackend:
    def test_values_in_submission_order_regardless_of_workers(self):
        for workers in (1, 2, 4):
            outcomes = MultiprocessingBackend(workers=workers).run_tasks(
                squares(9)
            )
            assert [o.value for o in outcomes] == [i * i for i in range(9)]
            assert [o.key for o in outcomes] == [("sq", i) for i in range(9)]

    def test_worker_identity_recorded(self):
        outcomes = MultiprocessingBackend(workers=2).run_tasks(squares(4))
        assert all(o.worker.startswith("pid:") for o in outcomes)

    def test_child_error_ships_traceback(self):
        tasks = squares(2) + [
            ExecTask(key=("bad",), kind="test_boom", payload={"x": 3})
        ]
        with pytest.raises(ExecError, match="boom on 3"):
            MultiprocessingBackend(workers=2).run_tasks(tasks)

    def test_empty_task_list(self):
        assert MultiprocessingBackend(workers=2).run_tasks([]) == []


class TestMemoShipping:
    def test_export_absorb_round_trip(self):
        source = AssetRegistry()
        source._recalls[("m", 1000, "ivf", 21, 42, 32)] = 0.97
        source._profiles[("m", 1000, "CPU", "jit", 21, 42, None)] = "profile"
        memos = source.export_memos()
        assert set(memos) == {"recalls", "profiles"}

        target = AssetRegistry()
        assert target.absorb_memos(memos) == 2
        assert target._recalls == source._recalls
        # Existing entries win on re-absorb; nothing is double-counted.
        assert target.absorb_memos(memos) == 0

    def test_export_skip_filters_shipped_keys(self):
        source = AssetRegistry()
        source._recalls[("a",)] = 0.9
        source._recalls[("b",)] = 0.8
        memos = source.export_memos(skip={"recalls": {("a",)}})
        assert memos == {"recalls": {("b",): 0.8}}

    def test_planner_mp_ships_memos_back_to_parent(self):
        from repro.core import DeploymentPlanner
        from repro.core.experiment import ExperimentRunner
        from repro.core.spec import Scenario
        from repro.hardware.instances import instance_by_name

        registry = AssetRegistry()
        planner = DeploymentPlanner(
            runner=ExperimentRunner(registry=registry, seed=11),
            duration_s=5.0,
            max_replicas=1,
            backend="mp:workers=2",
        )
        planner.plan(
            Scenario("memo", 2_000, 20), ["gru4rec"],
            instances=[instance_by_name("CPU")],
        )
        # The worker measured the profile; the parent never built one
        # itself, so any entry here must have been shipped and absorbed.
        assert registry._profiles


class TestObservability:
    def test_serial_counters_and_spans(self):
        telemetry = Telemetry(keep_spans=True)
        SerialBackend().run_tasks(squares(3), telemetry=telemetry)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot['exec_tasks_total{backend="serial"}'] == 3
        assert snapshot['exec_task_failures_total{backend="serial"}'] == 0
        assert snapshot['exec_workers{backend="serial"}'] == 1
        spans = [s for s in telemetry.trace.spans if s.name == "exec_task"]
        assert len(spans) == 3
        assert [s.attrs["key"] for s in spans] == [
            str(("sq", i)) for i in range(3)
        ]
        assert all(s.attrs["backend"] == "serial" for s in spans)

    def test_failures_counted(self):
        telemetry = Telemetry()
        tasks = squares(1) + [
            ExecTask(key=("bad",), kind="test_boom", payload={"x": 9})
        ]
        SerialBackend().run_tasks(
            tasks, telemetry=telemetry, raise_on_error=False
        )
        snapshot = telemetry.metrics.snapshot()
        assert snapshot['exec_tasks_total{backend="serial"}'] == 2
        assert snapshot['exec_task_failures_total{backend="serial"}'] == 1

    def test_mp_spans_in_submission_order(self):
        telemetry = Telemetry(keep_spans=True)
        MultiprocessingBackend(workers=2).run_tasks(
            squares(4), telemetry=telemetry
        )
        snapshot = telemetry.metrics.snapshot()
        assert snapshot['exec_tasks_total{backend="mp"}'] == 4
        assert snapshot['exec_workers{backend="mp"}'] == 2
        spans = [s for s in telemetry.trace.spans if s.name == "exec_task"]
        # Spans are emitted by the parent after the deterministic merge,
        # so their order never depends on completion order either.
        assert [s.attrs["key"] for s in spans] == [
            str(("sq", i)) for i in range(4)
        ]
