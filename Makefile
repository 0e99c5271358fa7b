# Convenience targets for the DISCO reproduction.

PYTHON ?= python

.PHONY: install lint test test-nonative test-faults serve-smoke bench bench-check bench-gate bench-gate-quick bench-mem bench-shootout bench-shootout-quick scenarios scenarios-quick report examples all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# Static checks.  ruff (configured in pyproject.toml) when available;
# otherwise fall back to a byte-compile pass so the target still
# catches syntax errors on minimal environments.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q

# Same suite with the compiled native backend masked: proves every
# engine="native" / engine="auto" caller degrades cleanly to the vector
# path on machines without a C compiler.
test-nonative:
	PYTHONPATH=src REPRO_DISABLE_NATIVE=1 $(PYTHON) -m pytest tests/ -q

# Fault-injection audit: the seeded fault-schedule suite and the
# exactly-once telemetry regression, then the CLI invariant audit
# (bit-identity, shm hygiene) over its built-in fault plans.
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest tests/harness/test_faults.py tests/test_obs.py -q
	PYTHONPATH=src $(PYTHON) -m repro faults

# End-to-end daemon smoke: boot `repro serve` as a subprocess on an
# ephemeral port, verify live queries against an offline stream() of the
# same trace, then crash it with an injected fault and prove --resume
# answers bit-identically.  Finishes in seconds.
serve-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/serve_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

# The end-to-end benchmark's own tests (every workload quick, untraced and
# traced).  Its traced pass wraps repro.streaming.run_kernel /
# stable_hash and the DISCO kernel's state methods from outside, so a
# streaming refactor must keep it green.
bench-check:
	python3 -m pytest bench/test_bench.py -q

bench-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_gate.py

bench-gate-quick:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_gate.py --quick

# Measured counter-store footprint (dense vs pools vs Morris bytes per
# flow at the one-million-flow gate scale), then the headline
# ten-million-flow Counter Pools run; both append to BENCH_perf.json.
bench-mem:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_memory_stores.py
	PYTHONPATH=src $(PYTHON) examples/ten_million_flows.py --flows 10000000 --record

# Beyond-the-paper comparator shootout (DISCO / SAC / ANLS / SD / ICE /
# AEE): the full run regenerates docs/shootout.md from measurements;
# the quick run (<60s) prints the table without touching the doc.
bench-shootout:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_shootout.py

bench-shootout-quick:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_shootout.py --quick

# Scheme × scenario × memory-budget matrix (repro.harness.scenarios):
# both runs regenerate docs/scenarios.md; the quick slice (<60s) skips
# the native engine and the largest budget.
scenarios:
	PYTHONPATH=src $(PYTHON) -m repro scenarios

scenarios-quick:
	PYTHONPATH=src $(PYTHON) -m repro scenarios --quick

report:
	$(PYTHON) -m repro report --out report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done; echo "all examples ran"

all: lint test test-nonative test-faults serve-smoke bench bench-check bench-gate-quick bench-shootout-quick scenarios-quick
