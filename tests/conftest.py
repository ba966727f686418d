"""Repo-wide pytest fixtures.

The only global behaviour here is the hang guard: a discrete-event
simulation bug (a worker that never yields, a signal that never fires)
shows up as a test that spins forever, which on CI means a 6-hour job
timeout with no traceback. ``faulthandler.dump_traceback_later`` turns
that into a dumped stack for every thread followed by a hard exit, per
test.

Override the budget with ``ETUDE_TEST_TIMEOUT`` (seconds); ``0`` disables
the guard (e.g. when stepping through a test under a debugger).

The ``deployments`` fixture, on request, keeps every deployment a run
creates, so a test can inspect the pods of a finished experiment.
"""

import faulthandler
import os

import pytest

#: Per-test wall-clock budget in seconds. Generous: the slowest legitimate
#: tests (long deployed-benchmark integrations) finish well under this.
DEFAULT_TIMEOUT_S = 120.0


@pytest.fixture(autouse=True)
def _hang_guard():
    timeout_s = float(os.environ.get("ETUDE_TEST_TIMEOUT", DEFAULT_TIMEOUT_S))
    if timeout_s <= 0 or not hasattr(faulthandler, "dump_traceback_later"):
        yield
        return
    faulthandler.dump_traceback_later(timeout_s, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def deployments(monkeypatch):
    """Every deployment ``Cluster.deploy_model`` creates during the test."""
    from repro.cluster.kubernetes import Cluster

    created = []
    deploy_model = Cluster.deploy_model

    def keep(cluster, *args, **kwargs):
        created.append(deploy_model(cluster, *args, **kwargs))
        return created[-1]

    monkeypatch.setattr(Cluster, "deploy_model", keep)
    return created
