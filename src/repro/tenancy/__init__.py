"""Multi-tenant model fleets: co-located serving under one budget.

The ``--tenants`` subsystem (``docs/tenancy.md``): a grammar for named
tenants with traffic weights, SLOs and canary/shadow arms
(:mod:`~repro.tenancy.config`), deterministic weighted traffic
splitting (:mod:`~repro.tenancy.split`), per-pod tenant serving state
with tenant-scoped cache keyspaces (:mod:`~repro.tenancy.fleet`),
co-location budgets plus bin-packed fleet placement
(:mod:`~repro.tenancy.placement`), and rolling per-tenant version
updates (:mod:`~repro.tenancy.rollout`).

Opt-in like every subsystem since PR 3: without ``--tenants`` no
tenancy object exists anywhere and the harness is bit-identical to the
paper-faithful single-model benchmark.
"""

from repro.tenancy.config import DEFAULT_FAIR_DEPTH, TenancyConfig, TenantConfig
from repro.tenancy.fleet import ARM_CANARY, ARM_STABLE, TenantServing
from repro.tenancy.rollout import TenantRollout, bumped_version
from repro.tenancy.split import SHADOW_ID_BASE, TenantTally, TrafficSplitter

#: Placement names resolve lazily (PEP 562): the planner imports the
#: experiment runner, which imports the spec module, which imports this
#: package — an eager import here would close that cycle.
_PLACEMENT_NAMES = (
    "FleetPlan",
    "FleetPlanner",
    "check_colocation",
    "colocation_budget",
    "colocated_resident_bytes",
    "GPU_RESERVE_BYTES",
    "CPU_RESERVE_BYTES",
)


def __getattr__(name):
    if name in _PLACEMENT_NAMES:
        from repro.tenancy import placement

        return getattr(placement, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "TenancyConfig",
    "TenantConfig",
    "DEFAULT_FAIR_DEPTH",
    "TenantServing",
    "ARM_STABLE",
    "ARM_CANARY",
    "TrafficSplitter",
    "TenantTally",
    "SHADOW_ID_BASE",
    "TenantRollout",
    "bumped_version",
    *_PLACEMENT_NAMES,
]
