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
# source tree (imports must resolve, CLI lines must parse, backticked
# paths and `make` targets must exist).
.PHONY: docs-check
docs-check:
	$(PYTHON) tools/docs_check.py

.PHONY: test
test: docs-check bench-smoke perfbench-selftest
	$(PYTHON) -m pytest tests/

# The host-time benchmark's self-tests (perfbench/README.md). They run
# the tiny smoke workload against its golden fingerprint, so a hot-path
# change that alters any simulated number fails here.
.PHONY: perfbench-selftest
perfbench-selftest:
	$(PYTHON) -m pytest perfbench/tests -q

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
