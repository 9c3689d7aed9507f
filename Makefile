# `make gate` runs what CI runs (.github/workflows/ci.yml) on this
# checkout: ruff, the strict mypy paths, the invariant linter, tier-1,
# perfbench's own tests and the bench-suite regression gate (the suite
# into a temporary file, diffed against BENCH_core.json). ruff and mypy
# are run only when they are importable; if either is not, the gate
# says which checks did not run and exits non-zero, so a green gate
# always means all six ran.

PYTHON ?= python
MYPY_PATHS = src/repro/sched src/repro/engine src/repro/fleet \
	src/repro/obs src/repro/analysis src/repro/serve src/repro/perf

.PHONY: gate
gate:
	@skipped=""; \
	if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests || exit 1; \
	else skipped="$$skipped ruff"; fi; \
	if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy $(MYPY_PATHS) || exit 1; \
	else skipped="$$skipped mypy"; fi; \
	PYTHONPATH=src $(PYTHON) -m repro lint || exit 1; \
	PYTHONPATH=src $(PYTHON) -m pytest -x -q || exit 1; \
	$(PYTHON) -m pytest perfbench/tests -q || exit 1; \
	suite=$$(mktemp); \
	PYTHONPATH=src $(PYTHON) -m repro bench suite --out $$suite \
		&& PYTHONPATH=src $(PYTHON) -m repro bench diff BENCH_core.json \
			$$suite || { rm -f $$suite; exit 1; }; \
	rm -f $$suite; \
	if [ -n "$$skipped" ]; then \
		echo "gate INCOMPLETE: not installed, so not run:$$skipped" >&2; \
		exit 1; \
	fi; \
	echo "gate OK: ruff, mypy, repro lint, tier-1, perfbench/tests, bench suite"
