# Make targets mirroring the paper's automation (Section II: "make infra",
# "make run_deployed_benchmark") plus the usual development entry points.

PYTHON ?= python

# One-time infrastructure setup. On the real platform this provisions the
# Kubernetes cluster, the storage bucket and service accounts; here it
# verifies the simulated equivalents come up.
.PHONY: infra
infra:
	$(PYTHON) -c "from repro.cluster import make_infra; \
	infra = make_infra(); \
	print('cluster ready; bucket:', infra.bucket.name); \
	print('service accounts:', ', '.join(infra.service_accounts))"

# One deployed benchmark. Usage:
#   make run_deployed_benchmark MODEL=gru4rec CATALOG=1000000 RPS=500 INSTANCE=GPU-T4
MODEL ?= gru4rec
CATALOG ?= 1000000
RPS ?= 500
INSTANCE ?= GPU-T4
REPLICAS ?= 1
.PHONY: run_deployed_benchmark
run_deployed_benchmark:
	$(PYTHON) -m repro run --model $(MODEL) --catalog $(CATALOG) \
	  --rps $(RPS) --instance $(INSTANCE) --replicas $(REPLICAS) --plot

.PHONY: install
install:
	$(PYTHON) setup.py develop

# Validate the code examples in docs/*.md and README.md against the
# source tree (imports must resolve, CLI lines must parse).
.PHONY: docs-check
docs-check:
	$(PYTHON) tools/docs_check.py

.PHONY: test
test: docs-check bench-smoke perfbench-selftest overload-smoke cache-smoke shard-smoke retrieval-smoke scheduler-smoke failover-smoke tenant-smoke parallel-smoke
	$(PYTHON) -m pytest tests/

# The host-time benchmark's self-tests (perfbench/README.md). They run
# the tiny smoke workload against its golden fingerprint, so a hot-path
# change that alters any simulated number fails here.
.PHONY: perfbench-selftest
perfbench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

# Tiny deterministic overload run: deadline admission + fallback tier must
# turn a 3x-capacity overload into degraded 200s (no 503s, p99 in SLO).
.PHONY: overload-smoke
overload-smoke:
	$(PYTHON) tools/overload_smoke.py

# Tiny deterministic cache run against a real model: the cache-on run must
# hit, and every response must match the cache-off run's recommendations.
.PHONY: cache-smoke
cache-smoke:
	$(PYTHON) tools/cache_smoke.py

# Tiny deterministic sharding run against a real model: S=4 scatter-gather
# must match the unsharded server request for request, and a shard crash
# must degrade catalog coverage instead of flooding 5xxs.
.PHONY: shard-smoke
shard-smoke:
	$(PYTHON) tools/shard_smoke.py

# Tiny deterministic ANN run against a real model: IVF probing half its
# lists must reach recall@20 >= 0.9 vs the exact scan, and a disabled
# retrieval run must stay byte-identical to the baseline.
.PHONY: retrieval-smoke
retrieval-smoke:
	$(PYTHON) tools/retrieval_smoke.py

# Deterministic heterogeneous-scheduler checks: split-fleet exactness,
# mixed-vs-homogeneous tail under load, disabled-mode bit-identity.
.PHONY: scheduler-smoke
scheduler-smoke:
	$(PYTHON) tools/scheduler_smoke.py

# Deterministic failure drill: a zone-replicated sharded deployment must
# ride out a full zone outage (>=99% 200s, coverage 1.0, finite TTR) and
# the unreplicated control must be called out as a collapse.
.PHONY: failover-smoke
failover-smoke:
	$(PYTHON) tools/failover_smoke.py

# Deterministic tenant-fleet checks: co-located answers bit-identical to
# each tenant served alone, shadow traffic never client-visible, canary
# rollout with zero 5xx, and a 4x tenant storm that cannot starve the
# co-tenant's SLO.
.PHONY: tenant-smoke
tenant-smoke:
	$(PYTHON) tools/tenant_smoke.py

# Cross-backend determinism smoke: one tiny planner grid evaluated on
# serial, mp(2) and mp(4) must produce byte-identical plans and report
# tables; on >= 4-core hosts mp(4) must also beat the serial wall clock.
.PHONY: parallel-smoke
parallel-smoke:
	$(PYTHON) tools/parallel_smoke.py

# Line coverage over the unit suite (see README "Development"). Needs
# pytest-cov; when it is absent the target explains and skips instead of
# failing, so environments without the plugin can still run `make test`.
COV_FAIL_UNDER ?= 80
.PHONY: coverage
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
	  $(PYTHON) -m pytest tests/ --cov=repro \
	    --cov-report=term-missing --cov-fail-under=$(COV_FAIL_UNDER); \
	else \
	  echo "coverage: SKIPPED (pytest-cov is not installed;"; \
	  echo "  install it with 'pip install pytest-cov' to measure coverage)"; \
	fi

.PHONY: benchmarks
benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Every benchmark script in a tiny configuration (ETUDE_BENCH_SMOKE=1
# shrinks durations/request counts in benchmarks/conftest.py): proves each
# paper artifact still regenerates and its shape assertions still hold,
# without paying for the full regeneration.
.PHONY: bench-smoke
bench-smoke:
	ETUDE_BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

.PHONY: reproduce
reproduce:
	$(PYTHON) -m repro reproduce --out reproduction_report.md
	@echo "wrote reproduction_report.md"

.PHONY: examples
examples:
	@for script in examples/*.py; do \
	  echo "=== $$script"; $(PYTHON) $$script || exit 1; \
	done
