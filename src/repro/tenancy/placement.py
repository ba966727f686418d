"""Co-location budgets and bin-packed fleet placement.

Co-locating N tenants on one replica multiplies the resident footprint:
every pod hosts every tenant's artifact (twice for tenants with an
active canary arm). :func:`check_colocation` enforces the per-instance
memory budget *before* any pod is provisioned, with a per-tenant
breakdown in the :class:`~repro.cluster.kubernetes.DeploymentError` —
the generic single-model fit checks then re-verify the summed footprint
at deploy time.

:class:`FleetPlanner` extends Table I planning with the bin-packing
dimension: for a tenant fleet it searches (instance type × replica
count) for the cheapest *co-located* deployment in which **every**
tenant meets its own SLO under its own traffic share, and prices the
alternative — one standalone Table I plan per tenant at the same SLO —
so the report can show what co-location saves (or costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.kubernetes import DeploymentError
from repro.core.planner import (
    DeploymentOption,
    DeploymentPlanner,
    option_sort_key,
    search_replicas,
)
from repro.core.spec import SLO, ExperimentSpec, HardwareSpec, Scenario
from repro.hardware.device import CPU_RESERVE_BYTES, GPU_RESERVE_BYTES
from repro.hardware.instances import INSTANCE_TYPES, InstanceType
from repro.tenancy.config import TenancyConfig
from repro.tenancy.fleet import TenantServing


def colocated_resident_bytes(servings: Sequence[TenantServing]) -> float:
    """Total bytes the fleet pins on one replica (canaries count twice)."""
    return sum(serving.hosted_bytes() for serving in servings)


def colocation_budget(instance: InstanceType) -> float:
    """Bytes one replica may spend on resident artifacts."""
    device = instance.device
    if device.is_accelerator:
        return device.memory_bytes - GPU_RESERVE_BYTES
    return instance.ram_bytes - CPU_RESERVE_BYTES


def check_colocation(
    instance: InstanceType, servings: Sequence[TenantServing]
) -> float:
    """Enforce the per-instance memory budget for a co-located fleet.

    Returns the summed resident bytes when the fleet fits; raises
    :class:`DeploymentError` with a per-tenant breakdown when it does
    not. GPU deployments additionally need score-buffer headroom on top
    of this — the cluster's ``fit_batching``/``check_fit`` still run on
    the summed footprint and enforce that part.
    """
    total = colocated_resident_bytes(servings)
    budget = colocation_budget(instance)
    if total > budget:
        rows = ", ".join(
            f"{s.name}={s.hosted_bytes() / 1e9:.1f} GB"
            + ("(+canary)" if s.canary_version is not None else "")
            for s in servings
        )
        raise DeploymentError(
            f"tenant fleet needs {total / 1e9:.1f} GB resident but "
            f"{instance.name} offers {budget / 1e9:.1f} GB "
            f"({rows})"
        )
    return total


@dataclass
class FleetPlan:
    """Bin-packing search outcome for one tenant fleet.

    ``options`` are co-located deployments (every tenant's SLO verified
    per tenant); ``standalone`` holds the per-tenant Table I winner each
    tenant would need on its own, at the same SLO and its share of the
    traffic — the cost baseline co-location is judged against.
    """

    tenancy: TenancyConfig
    catalog_size: int
    target_rps: int
    options: List[DeploymentOption] = field(default_factory=list)
    infeasible: Dict[str, str] = field(default_factory=dict)
    standalone: Dict[str, Optional[DeploymentOption]] = field(
        default_factory=dict
    )

    def cheapest(self) -> Optional[DeploymentOption]:
        """Cheapest co-located option (ScenarioPlan's tie-break order)."""
        if not self.options:
            return None
        return min(self.options, key=option_sort_key)

    @property
    def standalone_total_usd(self) -> Optional[float]:
        """Summed cost of the per-tenant standalone winners.

        None when any tenant has no feasible standalone plan — there is
        no isolated baseline to compare against then.
        """
        costs = []
        for option in self.standalone.values():
            if option is None:
                return None
            costs.append(option.monthly_cost_usd)
        return sum(costs) if costs else None

    @property
    def savings_usd(self) -> Optional[float]:
        """Monthly savings of co-location over isolated deployments."""
        winner = self.cheapest()
        baseline = self.standalone_total_usd
        if winner is None or baseline is None:
            return None
        return baseline - winner.monthly_cost_usd


class FleetPlanner:
    """Searches co-located fleet placements meeting every tenant's SLO."""

    def __init__(
        self,
        runner=None,
        slo: SLO = SLO(),
        duration_s: float = 90.0,
        max_replicas: int = 8,
    ):
        from repro.core.experiment import ExperimentRunner

        self.runner = runner or ExperimentRunner()
        #: Default contract for tenants that declare no ``slo=``.
        self.slo = slo
        self.duration_s = duration_s
        self.max_replicas = max_replicas

    # -- per-tenant pieces -------------------------------------------------

    def _tenant_rps(self, tenancy: TenancyConfig, name: str, total: int) -> int:
        """A tenant's entitled share of the client traffic (>= 1 rps)."""
        return max(1, int(round(total * tenancy.entitlement(name))))

    def _tenant_slo(self, tenancy: TenancyConfig, name: str) -> SLO:
        tenant = tenancy.tenant(name)
        if tenant.slo_ms is None:
            return self.slo
        return SLO(
            p90_latency_ms=tenant.slo_ms,
            max_error_rate=self.slo.max_error_rate,
        )

    def _meets_fleet_slo(self, tenancy: TenancyConfig, result) -> bool:
        """Every primary tenant's measured p90 under its own contract."""
        section = result.tenancy or {}
        for tenant in tenancy.primaries:
            row = section.get("tenants", {}).get(tenant.name)
            if row is None or row["p90_ms"] is None:
                return False
            slo = self._tenant_slo(tenancy, tenant.name)
            if row["p90_ms"] > slo.p90_latency_ms:
                return False
            served = row["ok"] + row["errors"]
            if served and row["errors"] / served > slo.max_error_rate:
                return False
        return True

    # -- the co-located search ---------------------------------------------

    def _measure(
        self,
        tenancy: TenancyConfig,
        catalog_size: int,
        target_rps: int,
        instance: InstanceType,
        replicas: int,
    ):
        spec = ExperimentSpec(
            model=tenancy.primaries[0].model,
            catalog_size=catalog_size,
            target_rps=target_rps,
            hardware=HardwareSpec(
                instance_type=instance.name, replicas=replicas
            ),
            duration_s=self.duration_s,
            tenants=tenancy,
        )
        return self.runner.run(spec)

    def _seed_replicas(
        self,
        tenancy: TenancyConfig,
        catalog_size: int,
        target_rps: int,
        instance: InstanceType,
    ) -> int:
        """Analytic floor: summed per-tenant demand on one shared replica."""
        helper = DeploymentPlanner(
            runner=self.runner, slo=self.slo, max_replicas=self.max_replicas
        )
        demand = 0
        for tenant in tenancy.primaries:
            rps = self._tenant_rps(tenancy, tenant.name, target_rps)
            scenario = Scenario("fleet", catalog_size, rps)
            per_tenant = helper.estimate_replicas(
                tenant.model, scenario, instance
            )
            if per_tenant > self.max_replicas:
                return self.max_replicas + 1
            demand += per_tenant
        # Per-tenant estimates are each ceil'd to >= 1, so the sum
        # overshoots for small tenants; the shrink pass corrects that.
        return max(1, min(demand, self.max_replicas + 1))

    def plan(
        self,
        tenancy: TenancyConfig,
        catalog_size: int,
        target_rps: int,
        instances: Optional[Sequence[InstanceType]] = None,
        standalone: bool = True,
    ) -> FleetPlan:
        """Search every instance type for the cheapest co-located fleet."""
        if not tenancy.enabled:
            raise ValueError("FleetPlanner needs a non-empty tenant fleet")
        instances = list(instances or INSTANCE_TYPES)
        plan = FleetPlan(
            tenancy=tenancy,
            catalog_size=catalog_size,
            target_rps=target_rps,
        )
        for instance in instances:
            option = self._search_instance(
                tenancy, catalog_size, target_rps, instance, plan
            )
            if option is not None:
                plan.options.append(option)
        if standalone:
            for tenant in tenancy.primaries:
                plan.standalone[tenant.name] = self._standalone_option(
                    tenancy, catalog_size, target_rps, tenant.name, instances
                )
        return plan

    def _search_instance(
        self,
        tenancy: TenancyConfig,
        catalog_size: int,
        target_rps: int,
        instance: InstanceType,
        plan: FleetPlan,
    ) -> Optional[DeploymentOption]:
        start = self._seed_replicas(tenancy, catalog_size, target_rps, instance)
        if start > self.max_replicas:
            plan.infeasible[instance.name] = (
                f"no feasible fleet within {self.max_replicas} replicas"
            )
            return None
        errors: List[DeploymentError] = []

        def measure(replicas: int):
            try:
                return self._measure(
                    tenancy, catalog_size, target_rps, instance, replicas
                )
            except DeploymentError as error:
                # Budget exceeded: no replica count changes residency.
                errors.append(error)
                return None

        found = search_replicas(
            start, 1, self.max_replicas, measure,
            lambda _replicas, result: self._meets_fleet_slo(tenancy, result),
        )
        if found is None:
            plan.infeasible[instance.name] = (
                str(errors[0])
                if errors
                else f"no replica count within {self.max_replicas} meets "
                "every tenant's SLO"
            )
            return None
        replicas, result = found
        return DeploymentOption(
            instance_type=instance.name,
            replicas=replicas,
            monthly_cost_usd=instance.cost_for(replicas),
            result=result,
            tenants=tenancy.spec_string(),
        )

    # -- the isolated baseline ---------------------------------------------

    def _standalone_option(
        self,
        tenancy: TenancyConfig,
        catalog_size: int,
        target_rps: int,
        name: str,
        instances: Sequence[InstanceType],
    ) -> Optional[DeploymentOption]:
        """Table I winner for one tenant deployed alone at its share."""
        tenant = tenancy.tenant(name)
        rps = self._tenant_rps(tenancy, name, target_rps)
        planner = DeploymentPlanner(
            runner=self.runner,
            slo=self._tenant_slo(tenancy, name),
            duration_s=self.duration_s,
            max_replicas=self.max_replicas,
        )
        scenario = Scenario(f"standalone-{name}", catalog_size, rps)
        plans = planner.plan(scenario, [tenant.model], instances=instances)
        return plans[tenant.model].cheapest()


__all__ = [
    "FleetPlan",
    "FleetPlanner",
    "check_colocation",
    "colocation_budget",
    "colocated_resident_bytes",
    "GPU_RESERVE_BYTES",
    "CPU_RESERVE_BYTES",
]
