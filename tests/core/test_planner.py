"""Deployment planner: Table I logic on a reduced scenario set."""

import pytest

from repro.core import DeploymentPlanner, ExperimentRunner, SLO
from repro.core.spec import Scenario
from repro.hardware import CPU_E2, GPU_A100, GPU_T4


@pytest.fixture(scope="module")
def planner():
    return DeploymentPlanner(
        runner=ExperimentRunner(seed=11), duration_s=60.0, max_replicas=6
    )


class TestCapacityEstimates:
    def test_cpu_estimate_small_catalog(self, planner):
        scenario = Scenario("g", 10_000, 100)
        assert planner.estimate_replicas("stamp", scenario, CPU_E2) == 1

    def test_cpu_infeasible_at_ten_million(self, planner):
        scenario = Scenario("e", 10_000_000, 1000)
        estimate = planner.estimate_replicas("stamp", scenario, CPU_E2)
        assert estimate > planner.max_replicas

    def test_gpu_estimate_reasonable(self, planner):
        scenario = Scenario("e", 10_000_000, 1000)
        estimate = planner.estimate_replicas("gru4rec", scenario, GPU_T4)
        assert 2 <= estimate <= 8


class TestFeasibilitySearch:
    def test_groceries_small_needs_one_cpu(self, planner):
        scenario = Scenario("Groceries (small)", 10_000, 100)
        option = planner.min_feasible_replicas("stamp", scenario, CPU_E2)
        assert option is not None
        assert option.replicas == 1
        assert option.monthly_cost_usd == pytest.approx(108.09)

    def test_platform_infeasible_on_t4(self, planner):
        scenario = Scenario("Platform", 20_000_000, 1000)
        option = planner.min_feasible_replicas("gru4rec", scenario, GPU_T4)
        assert option is None

    def test_platform_feasible_on_a100(self, planner):
        scenario = Scenario("Platform", 20_000_000, 1000)
        option = planner.min_feasible_replicas("gru4rec", scenario, GPU_A100)
        assert option is not None
        assert option.replicas == 3  # the paper's Table I cell

    def test_plan_collects_options_and_infeasibles(self, planner):
        scenario = Scenario("Fashion", 1_000_000, 500)
        plans = planner.plan(scenario, ["stamp"], instances=[CPU_E2, GPU_T4])
        plan = plans["stamp"]
        names = {option.instance_type for option in plan.options}
        assert "GPU-T4" in names
        cheapest = plan.cheapest()
        assert cheapest is not None
        assert cheapest.monthly_cost_usd == min(
            option.monthly_cost_usd for option in plan.options
        )


class TestCheapestTieBreak:
    """Regression: cost ties used to resolve by list insertion order, so
    the planner's answer depended on instance-catalog ordering."""

    def _tied_options(self):
        from repro.core.planner import DeploymentOption

        return [
            DeploymentOption("CPU-B", 4, 100.0, result=None),
            DeploymentOption("CPU-A", 2, 100.0, result=None),
            DeploymentOption("GPU-Z", 2, 100.0, result=None),
            DeploymentOption("GPU-X", 1, 250.0, result=None),
        ]

    def test_ties_break_by_replicas_then_name(self):
        from repro.core.planner import ScenarioPlan

        scenario = Scenario("tied", 10_000, 100)
        options = self._tied_options()
        plan = ScenarioPlan(scenario=scenario, model="stamp", options=options)
        winner = plan.cheapest()
        assert (winner.instance_type, winner.replicas) == ("CPU-A", 2)

    def test_order_independent(self):
        from repro.core.planner import ScenarioPlan

        scenario = Scenario("tied", 10_000, 100)
        options = self._tied_options()
        answers = set()
        for rotation in range(len(options)):
            rotated = options[rotation:] + options[:rotation]
            plan = ScenarioPlan(
                scenario=scenario, model="stamp", options=rotated
            )
            winner = plan.cheapest()
            answers.add((winner.instance_type, winner.replicas))
        assert answers == {("CPU-A", 2)}

    def test_empty_plan_has_no_cheapest(self):
        from repro.core.planner import ScenarioPlan

        plan = ScenarioPlan(scenario=Scenario("e", 1, 1), model="stamp")
        assert plan.cheapest() is None


class TestCombinedDimensionTieBreak:
    """Regression for the full option space: when sharded, scheduler-mixed,
    ANN and co-located-tenant options tie on cost and machine count, the
    winner must be the *plainest* deployment (fewest shards, then name,
    then exact retrieval, then homogeneous, then single-tenant) and must
    not depend on list insertion order."""

    def _tied_options(self):
        from repro.core.planner import DeploymentOption

        # All cost 100, all 2 machines total — only the qualitative
        # dimensions differ.
        return [
            DeploymentOption(
                "CPU", 2, 100.0, result=None,
                tenants="a=stamp:1;b=stamp:1",
            ),
            DeploymentOption(
                "CPU", 2, 100.0, result=None, scheduler="cpu=1",
            ),
            DeploymentOption(
                "CPU", 2, 100.0, result=None, retrieval="ivf:nlist=32",
            ),
            DeploymentOption("CPU", 1, 100.0, result=None, shards=2),
            DeploymentOption("CPU", 2, 100.0, result=None),  # the winner
        ]

    def _fingerprint(self, option):
        return (
            option.instance_type, option.replicas, option.shards,
            option.retrieval, option.scheduler, option.tenants,
        )

    def test_plainest_option_wins(self):
        from repro.core.planner import option_sort_key

        winner = min(self._tied_options(), key=option_sort_key)
        assert self._fingerprint(winner) == ("CPU", 2, 1, None, None, None)

    def test_order_independent_across_planners(self):
        import itertools

        from repro.core.planner import ScenarioPlan
        from repro.tenancy import TenancyConfig
        from repro.tenancy.placement import FleetPlan

        options = self._tied_options()
        scenario = Scenario("tied", 10_000, 100)
        fleet = TenancyConfig.parse("a=stamp:1;b=stamp:1")
        answers = set()
        for permutation in itertools.permutations(options):
            shuffled = list(permutation)
            scenario_winner = ScenarioPlan(
                scenario=scenario, model="stamp", options=shuffled
            ).cheapest()
            fleet_winner = FleetPlan(
                tenancy=fleet, catalog_size=10_000, target_rps=100,
                options=shuffled,
            ).cheapest()
            # Both planners share one ordering contract.
            assert self._fingerprint(fleet_winner) == self._fingerprint(
                scenario_winner
            )
            answers.add(self._fingerprint(scenario_winner))
        assert answers == {("CPU", 2, 1, None, None, None)}


class TestClimbDoesNotRemeasure:
    def test_climb_skips_the_shrink(self, monkeypatch):
        """A start count the climb left behind was measured infeasible:
        the search stops at the first feasible count without measuring
        that count minus one again, and plans what it always planned."""
        measured = []
        measure = DeploymentPlanner._measure

        def counting(self, model, scenario, instance, replicas, *args):
            measured.append(replicas)
            return measure(self, model, scenario, instance, replicas, *args)

        monkeypatch.setattr(DeploymentPlanner, "_measure", counting)
        # Force an undershooting analytic start: 1 replica, where 2 are needed.
        monkeypatch.setattr(
            DeploymentPlanner, "estimate_replicas", lambda self, *a, **k: 1
        )
        planner = DeploymentPlanner(
            runner=ExperimentRunner(seed=11), duration_s=20.0, max_replicas=6
        )
        plans = planner.plan(
            Scenario("Fashion (300 rps)", 1_000_000, 300), ["stamp"],
            instances=[CPU_E2],
        )
        assert measured == [1, 2]  # the search used to measure [1, 2, 1]
        (option,) = plans["stamp"].options
        assert (option.instance_type, option.replicas) == ("CPU", 2)
        assert option.monthly_cost_usd == pytest.approx(216.18)
        assert repr(option.result.p90_ms) == "34.67368504525317"


class TestFleetClimbDoesNotRemeasure:
    def test_climb_skips_the_shrink(self, monkeypatch):
        """``FleetPlanner`` keeps the same contract: a count its climb
        found infeasible is not measured again on the way down."""
        from repro.tenancy import TenancyConfig
        from repro.tenancy.placement import FleetPlanner

        measured = []

        def measure(self, tenancy, catalog_size, target_rps, instance, replicas):
            measured.append(replicas)
            return replicas

        monkeypatch.setattr(FleetPlanner, "_measure", measure)
        # Undershooting seed: 1 replica, where the stub needs 2.
        monkeypatch.setattr(FleetPlanner, "_seed_replicas", lambda self, *a: 1)
        monkeypatch.setattr(
            FleetPlanner, "_meets_fleet_slo",
            lambda self, tenancy, replicas: replicas >= 2,
        )
        plan = FleetPlanner(runner=ExperimentRunner(seed=11)).plan(
            TenancyConfig.parse("a=stamp:1;b=stamp:1"), 10_000, 100,
            instances=[CPU_E2], standalone=False,
        )
        assert measured == [1, 2]  # the search used to measure [1, 2, 1]
        (option,) = plan.options
        assert (option.instance_type, option.replicas) == ("CPU", 2)


class TestFleetInfeasibleReasons:
    """Why an instance type has no co-located fleet, in the planner's
    words: the seed already over the cap, a deployment the instance
    cannot hold, or no count up to the cap that meets every SLO."""

    @pytest.mark.parametrize(
        "seed, error, reason",
        [
            (7, None, "no feasible fleet within 6 replicas"),
            (1, "over budget", "over budget"),
            (1, None, "no replica count within 6 meets every tenant's SLO"),
        ],
    )
    def test_reason(self, monkeypatch, seed, error, reason):
        from repro.cluster.kubernetes import DeploymentError
        from repro.tenancy import TenancyConfig
        from repro.tenancy.placement import FleetPlanner

        measured = []

        def measure(self, tenancy, catalog_size, target_rps, instance, replicas):
            measured.append(replicas)
            if error is not None:
                raise DeploymentError(error)
            return replicas

        monkeypatch.setattr(FleetPlanner, "_measure", measure)
        monkeypatch.setattr(FleetPlanner, "_seed_replicas", lambda self, *a: seed)
        monkeypatch.setattr(
            FleetPlanner, "_meets_fleet_slo", lambda self, tenancy, result: False
        )
        plan = FleetPlanner(runner=ExperimentRunner(seed=11), max_replicas=6).plan(
            TenancyConfig.parse("a=stamp:1;b=stamp:1"), 10_000, 100,
            instances=[CPU_E2], standalone=False,
        )
        assert plan.options == []
        assert plan.infeasible == {"CPU": reason}
        assert measured == {7: [], 1: [1] if error else [1, 2, 3, 4, 5, 6]}[seed]
