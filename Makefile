# Development targets for the Colibri reproduction.

PYTHON ?= python

.PHONY: install test lint bench e2e-smoke native-asan reproduce examples quick clean

install:
	$(PYTHON) -m pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

# Repo-specific invariants: colibri-lint's per-file rules over
# src/tests/tools (docs/static_analysis.md), then the ledger check
# (DESIGN.md §3b must match a fresh count, every row within its bound).
lint:
	$(PYTHON) -m tools.colibri_lint src tests tools
	$(PYTHON) tools/loc_ledger.py --check

# The one measurement command: every paper figure as a table plus shape
# predicates (benchmarks/figures.py), EXPERIMENTS.md and
# REPRODUCTION_REPORT.md rewritten from the rows, non-zero exit on a
# violated predicate.  `$(PYTHON) tools/make_report.py --quick` is the
# reduced sweep CI runs.
bench:
	$(PYTHON) tools/make_report.py

# The BENCHMARK.json benchmark's own smoke test (~20 s).  It lives outside
# the tier-1 testpaths and brings its own imports, hence --noconftest.
# Then one quick data-plane run without the native kernel, so the
# correctness pass (replay, forged HVF, stale packet) also covers the
# Python bodies of the MAC check and the policing tables.
e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e/test_smoke.py -q --noconftest
	COLIBRI_NATIVE=0 $(PYTHON) benchmarks/e2e/run.py --workload burst_long_path --quick --blocks 2

# The kernel and the glue compiled with -Wall -Wextra -Werror; the native
# kernel (MAC verify and stamps, colibri_burst and its flow table against the
# Python policing bodies, every stop, the inputs it must refuse, buffers freed
# and re-bound mid-script) under ASan + UBSan, then the whole extension with
# the glue under both, the router's and the gateway's differential,
# hostile-input and refcount tests against it, ~60 s.
native-asan:
	PYTHONPATH=src $(PYTHON) tools/native_asan.py

# Everything the paper reports: the tests, then the one command.
reproduce:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) tools/make_report.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/critical_service.py
	$(PYTHON) examples/video_call.py
	$(PYTHON) examples/ddos_defense.py
	$(PYTHON) examples/video_stream.py

quick:
	$(PYTHON) -m repro demo

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
