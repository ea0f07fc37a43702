# Convenience entry points; CI runs the same commands (.github/workflows/ci.yml).
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test analyze analyze-tests analyze-diff simsan-smoke tie-smoke own-smoke trace-smoke chaos-smoke copyengine-smoke sarif lint baseline all bench bench-full bench-smoke perf-baseline ownership-report

all: analyze test

test:
	$(PYTHON) -m pytest -x -q

# Regenerate every paper exhibit (quick scale), then enforce the
# events/sec floors (engine, fig12, fig13) against
# benchmarks/bench-baseline.json.  REPRO_JOBS sets the sweep worker
# count; results/.simcache memoizes unchanged points
# (REPRO_SIMCACHE=off to disable).
bench:
	$(PYTHON) -m pytest benchmarks -x -q -p no:cacheprovider
	$(PYTHON) -m repro.perf gate

# Paper-sized parameters (slow).
bench-full:
	REPRO_SCALE=full $(PYTHON) -m pytest benchmarks -x -q -p no:cacheprovider

# The two representative exhibits CI tracks, plus the events/sec gate
# against benchmarks/bench-baseline.json.
bench-smoke:
	REPRO_JOBS=2 $(PYTHON) -m pytest benchmarks/test_fig12_seq_access.py benchmarks/test_fig21_bpq_sweep.py -x -q -p no:cacheprovider
	$(PYTHON) -m repro.perf gate

# Re-record the machine-normalized perf baseline (run on an idle box).
perf-baseline:
	$(PYTHON) -m repro.perf baseline

analyze:
	$(PYTHON) -m repro.analysis src/repro

# Fork-safety / cache-soundness / stale-noqa families only; the planted
# sanitizer and race-order fixtures are excluded because they violate
# the rules on purpose.
analyze-tests:
	$(PYTHON) -m repro.analysis tests benchmarks --select MC2401,MC2402,MC2403,MC2404,MC2501,MC2502,MC2503,MC2901 --exclude tests/unit/simsan_plants.py --exclude tests/unit/raceorder_plants.py --exclude tests/unit/ownership_plants.py

# Exit non-zero only on findings not in analysis-baseline.json.
analyze-diff:
	$(PYTHON) -m repro.analysis src/repro --diff

# One real sweep under the runtime sanitizer (docs/ANALYSIS.md).
simsan-smoke:
	REPRO_SIMSAN=1 REPRO_JOBS=2 REPRO_SIMCACHE=off $(PYTHON) -m pytest benchmarks/test_fig12_seq_access.py -x -q -p no:cacheprovider

# One real sweep under the tie-order perturbation sanitizer: every
# point runs twice (fifo vs lifo equal-cycle dispatch) and the full
# stat trees must match bit for bit (docs/ANALYSIS.md).
tie-smoke:
	REPRO_TIE_ORDER=paired REPRO_JOBS=2 REPRO_SIMCACHE=off $(PYTHON) -m pytest benchmarks/test_fig21_bpq_sweep.py -x -q -p no:cacheprovider

# Partition proof: per-shard inventories + the rendezvous edge list;
# exits non-zero unless 0 unknown classes and 0 problems
# (docs/SHARDING.md).  Also checks the planted violations stay caught.
ownership-report:
	$(PYTHON) -m repro.analysis src/repro --ownership-report
	$(PYTHON) -m repro.analysis src/repro --ownership-report --format json --output ownership-report.json
	! $(PYTHON) -m repro.analysis tests/unit/ownership_plants.py --select MC2701,MC2702,MC2703,MC2704,MC2705

# The ownership audit over the plant suite and a real system run
# (docs/ANALYSIS.md: REPRO_SIMSAN=own).
own-smoke:
	REPRO_SIMSAN=own $(PYTHON) -m pytest tests/unit/test_ownership.py -x -q -p no:cacheprovider

# Two-backend slice of the Fig. 23 crossover family (mclazy vs
# rowclone at 4KB/64KB): verifies functional equivalence end to end
# and that the lazy-vs-in-DRAM winner flips with size
# (docs/COPYENGINE.md).
copyengine-smoke:
	$(PYTHON) -m pytest benchmarks/test_fig23_backend_crossover.py -k smoke -x -q -p no:cacheprovider

# One traced micro workload end to end: export, schema-validate, and
# summarize a Chrome trace (docs/OBSERVABILITY.md).
trace-smoke:
	$(PYTHON) -m repro.obs run --workload seq --buffer-kb 64 \
		--out results/traces/trace-smoke.trace.json \
		--timeline-csv results/traces/trace-smoke.timeline.csv
	$(PYTHON) -m repro.obs validate results/traces/trace-smoke.trace.json

# Chaos drill: kill workers / sleep past deadlines / SIGKILL the
# sweeping process, then assert checkpoint-resume merges bit-identical
# and poison points land in the failure report (docs/RESILIENCE.md).
chaos-smoke:
	REPRO_JOBS=4 $(PYTHON) -m pytest tests/integration/test_chaos.py -x -q -p no:cacheprovider
	$(PYTHON) -m repro.analysis src/repro/resilience

sarif:
	$(PYTHON) -m repro.analysis src/repro --format sarif --output mc2-analyze.sarif || true
	@echo "wrote mc2-analyze.sarif"

# Requires the lint extra: pip install -e .[lint]
lint: analyze
	ruff check src tests
	mypy

# Re-record grandfathered findings (policy: keep this empty; add a
# justification string to any entry you must keep).
baseline:
	$(PYTHON) -m repro.analysis src/repro --write-baseline
