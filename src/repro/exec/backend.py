"""Execution backends: run keyed tasks serially or on a process pool.

Both backends satisfy one contract — ``run_tasks(tasks)`` returns one
:class:`TaskOutcome` per task **in submission order**, with values that
are bit-identical across backends and worker counts:

- tasks are independent and keyed; duplicate keys are rejected up front;
- each worker process rebuilds its orchestrator from the picklable
  payload with its own seeded ``random_streams`` derivation and a fresh
  registry (see ``repro.exec.tasks``), so a result never depends on which
  worker ran the task or what ran before it;
- the multiprocessing pool consumes completions out of order but the
  parent slots them back by submission index, so merge order — and
  therefore everything downstream: ``cheapest()``, report tables, JSON
  dumps — is independent of completion order.

``docs/parallelism.md`` documents the contract and its costs (pickling
constraints, when mp loses to serial outright).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.config import BackendConfig, resolve_backend
from repro.exec.tasks import reset_worker_state, run_task


@dataclass(frozen=True)
class ExecTask:
    """One isolated unit of work: a unique key, a kind, a picklable payload."""

    key: Tuple
    kind: str
    payload: dict = field(default_factory=dict)


@dataclass
class TaskOutcome:
    """Result of one task, returned in submission order."""

    key: Tuple
    value: Any = None
    #: Registry memo delta computed by the worker (None in-parent).
    memos: Optional[dict] = None
    #: Formatted traceback when the task raised; ``value`` is None then.
    error: Optional[str] = None
    wall_s: float = 0.0
    #: Executor identity ("parent" or "pid:<n>") — observability only;
    #: values never depend on it.
    worker: str = "parent"

    @property
    def ok(self) -> bool:
        return self.error is None


class ExecError(RuntimeError):
    """A task failed; carries the task key and the child traceback."""

    def __init__(self, key: Tuple, detail: str):
        super().__init__(f"task {key!r} failed:\n{detail}")
        self.key = key
        self.detail = detail


def _check_unique_keys(tasks: Sequence[ExecTask]) -> None:
    seen = set()
    for task in tasks:
        if task.key in seen:
            raise ValueError(f"duplicate task key: {task.key!r}")
        seen.add(task.key)


def _observe(
    telemetry,
    backend_name: str,
    workers: int,
    outcomes: Sequence[TaskOutcome],
) -> None:
    """Emit the exec_task spans and per-backend counters for one batch.

    Always called from the parent, in submission order, so telemetry is
    as deterministic as the results themselves (wall-clock span
    attributes aside).
    """
    if telemetry is None:
        return
    labels = {"backend": backend_name}
    completed = telemetry.metrics.counter(
        "exec_tasks_total", help="tasks executed, by backend", labels=labels
    )
    failed = telemetry.metrics.counter(
        "exec_task_failures_total",
        help="tasks that raised, by backend",
        labels=labels,
    )
    gauge = telemetry.metrics.gauge(
        "exec_workers", help="workers used by the last task batch", labels=labels
    )
    gauge.set(workers)
    for index, outcome in enumerate(outcomes):
        now = telemetry.trace.clock()
        telemetry.trace.record(
            "exec_task",
            index,
            now,
            now,
            key=str(outcome.key),
            backend=backend_name,
            worker=outcome.worker,
            wall_s=outcome.wall_s,
            ok=outcome.ok,
        )
        completed.inc()
        if not outcome.ok:
            failed.inc()


def _raise_first_error(outcomes: Sequence[TaskOutcome]) -> None:
    for outcome in outcomes:
        if outcome.error is not None:
            raise ExecError(outcome.key, outcome.error)


class SerialBackend:
    """In-process execution in submission order — the reference backend."""

    name = "serial"

    def __init__(self):
        self.config = BackendConfig(kind="serial")

    def run_tasks(
        self,
        tasks: Sequence[ExecTask],
        context: Any = None,
        telemetry=None,
        raise_on_error: bool = True,
    ) -> List[TaskOutcome]:
        _check_unique_keys(tasks)
        outcomes: List[TaskOutcome] = []
        for task in tasks:
            started = time.perf_counter()
            try:
                value, memos = run_task(task.kind, task.payload, context)
                outcome = TaskOutcome(key=task.key, value=value, memos=memos)
            except Exception:
                outcome = TaskOutcome(key=task.key, error=traceback.format_exc())
            outcome.wall_s = time.perf_counter() - started
            outcomes.append(outcome)
        _observe(telemetry, self.name, 1, outcomes)
        if raise_on_error:
            _raise_first_error(outcomes)
        return outcomes


def _invoke_task(packed: Tuple[int, str, dict, Tuple]) -> Tuple[int, Any, Optional[dict], Optional[str], float, str]:
    """Pool target: run one task in the worker, fully self-describing.

    Module-level so it pickles under both fork and spawn start methods.
    ``context`` is always None here — workers rebuild orchestrators from
    the payload (repro.exec.tasks caches them per process).
    """
    import os

    index, kind, payload, _key = packed
    started = time.perf_counter()
    try:
        value, memos = run_task(kind, payload, None)
        error = None
    except Exception:
        value, memos = None, None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - started
    return index, value, memos, error, wall_s, f"pid:{os.getpid()}"


class MultiprocessingBackend:
    """Fan tasks out to a process pool; merge deterministically.

    Uses the ``fork`` start method where available (Linux — cheap, no
    re-import) and falls back to ``spawn``. Results arrive unordered
    (``imap_unordered``) and are slotted back by submission index.
    """

    name = "mp"

    def __init__(self, workers: int = 0, start_method: Optional[str] = None):
        self.config = BackendConfig(kind="mp", workers=workers)
        self._start_method = start_method

    def _pool_context(self):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if self._start_method is not None:
            return multiprocessing.get_context(self._start_method)
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def run_tasks(
        self,
        tasks: Sequence[ExecTask],
        context: Any = None,
        telemetry=None,
        raise_on_error: bool = True,
    ) -> List[TaskOutcome]:
        _check_unique_keys(tasks)
        if not tasks:
            return []
        workers = min(self.config.effective_workers(), len(tasks))
        packed = [
            (index, task.kind, task.payload, task.key)
            for index, task in enumerate(tasks)
        ]
        slots: List[Optional[TaskOutcome]] = [None] * len(tasks)
        ctx = self._pool_context()
        # initializer resets worker caches: a fork()ed child must not
        # inherit the parent's half-warm registries (determinism does not
        # require the reset — memo values are pure functions of their
        # keys — but cold workers keep speedup measurements honest).
        with ctx.Pool(processes=workers, initializer=reset_worker_state) as pool:
            for index, value, memos, error, wall_s, worker in pool.imap_unordered(
                _invoke_task, packed, chunksize=1
            ):
                slots[index] = TaskOutcome(
                    key=tasks[index].key,
                    value=value,
                    memos=memos,
                    error=error,
                    wall_s=wall_s,
                    worker=worker,
                )
        outcomes = [outcome for outcome in slots if outcome is not None]
        if len(outcomes) != len(tasks):  # pragma: no cover - pool invariant
            raise RuntimeError("process pool dropped task results")
        _observe(telemetry, self.name, workers, outcomes)
        if raise_on_error:
            _raise_first_error(outcomes)
        return outcomes


Backend = Union[SerialBackend, MultiprocessingBackend]


def make_backend(
    spec: Optional[Union[str, BackendConfig, SerialBackend, MultiprocessingBackend]] = None,
) -> Backend:
    """Build a backend from a spec string / config / existing backend.

    ``None`` defers to ``ETUDE_BACKEND``, then the serial default
    (:func:`repro.exec.config.resolve_backend`).
    """
    if isinstance(spec, (SerialBackend, MultiprocessingBackend)):
        return spec
    config = resolve_backend(spec)
    if config.kind == "serial":
        return SerialBackend()
    return MultiprocessingBackend(workers=config.workers)
