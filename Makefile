# Convenience wrappers around the test, bench, and lint suites.
#
#   make verify           - tier-1 verification: tests/ + benchmarks/ minus `slow`
#   make bench            - the slow paper-table regenerations (quick profile)
#   make test-all         - everything, slow included
#   make coverage         - tier-1 under pytest-cov, gated on the checked-in
#                           floor (benchmarks/baselines/coverage_floor.txt);
#                           requires pytest-cov
#   make matrix           - the attack x defense resilience grid (quick)
#   make fuzz             - a seeded differential-fuzzing campaign (quick):
#                           one budgetless farm round against a fresh
#                           .fuzz_state, so reruns repeat the same round;
#                           fails on any invariant violation and leaves
#                           shrunk repro cases in .fuzz_state/corpus
#                           (FUZZ_TRIALS / FUZZ_SEED override the defaults)
#   make farm             - budgeted rounds of the continuous fuzz farm
#                           (examples/configs/quick-smoke.toml): coverage
#                           scheduling + deduplicating corpus under
#                           .repro_farm; resumes from its checkpoint, so
#                           repeated invocations keep exploring
#                           (FARM_CONFIG overrides the profile)
#   make opt-bench        - optimized vs raw attack pipeline on the quick
#                           Table II grid (cache-less, both arms); writes
#                           BENCH_opt.json to $(OPT_BENCH_DIR) and fails
#                           when optimization slows the total attack time
#                           by >10% or changes any attack outcome
#   make store-bench      - head-to-head result-store benchmark (json vs
#                           sqlite backends); writes
#                           BENCH_store.json to $(STORE_BENCH_DIR) and
#                           fails when the default json backend's
#                           put+get path regresses >25% against
#                           benchmarks/baselines/store_quick.json
#   make refresh-baseline - regenerate the Table II timing baseline from
#                           three clean (cache-less) quick runs and install
#                           the one with the median total at
#                           benchmarks/baselines/table2_quick.json; review
#                           the diff and commit it to bless the new budget
#   make refresh-store-baseline - same blessing dance for the store bench
#                           baseline (benchmarks/baselines/store_quick.json)
#   make service-smoke    - end-to-end attack-as-a-service check: boots a
#                           ReproService on a free port, drives a small
#                           grid through the batching client twice, and
#                           fails unless the second pass fully dedupes
#                           and the results are byte-identical to the
#                           in-process repro.api path; the server's
#                           metrics.prom lands in $(SERVICE_SMOKE_DIR)
#   make perf             - the repository benchmark (perfbench/,
#                           BENCHMARK.json), traced layer by layer at seed 0
#                           for each of $(PERF_WORKLOADS); saves each run's
#                           output as $(PERF_DIR)/<workload>.0.out, which
#                           perfbench/diff.py compares between two such
#                           directories, and fails when a run reports
#                           "correct": false
#   make docs             - regenerate docs/cli.md from the live argparse
#                           tree (scripts/gen_cli_docs.py); CI's docs-drift
#                           job fails when the committed file differs
#   make lint             - ruff check (whole repo) + ruff format --check (runner)
#
# REPRO_PROFILE=quick|full|paper scales the bench instances (default quick).
# REPRO_JOBS=N fans each bench's experiment grid across N worker
# processes through repro.runner (default 1; 0 = one per CPU core).

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest
RUFF ?= ruff
COVERAGE_FLOOR = benchmarks/baselines/coverage_floor.txt
BASELINE_DIR = .bench_refresh
OPT_BENCH_DIR ?= results
STORE_BENCH_DIR ?= results
STORE_BASELINE = benchmarks/baselines/store_quick.json
SERVICE_SMOKE_DIR ?= .service_smoke
PERF_DIR ?= results/perf
PERF_WORKLOADS ?= table2-quick keysweep-b17 fuzz-mix

.PHONY: verify bench test-all coverage matrix fuzz farm opt-bench \
  store-bench service-smoke perf refresh-baseline \
  refresh-store-baseline docs lint

verify:
	$(PYTEST) -x -q

# The trailing `-m slow` overrides the default `-m "not slow"` addopts;
# benchmarks/conftest.py errors out loudly if the filter ever ends up
# deselecting every bench, so this target can't silently run nothing.
bench:
	$(PYTEST) benchmarks -m slow -q -s

test-all:
	$(PYTEST) -m "slow or not slow" -q

coverage:
	$(PYTEST) -q --cov=repro --cov-report=term-missing \
	  --cov-fail-under="$$(cat $(COVERAGE_FLOOR))"

matrix:
	PYTHONPATH=src $(PYTHON) -m repro.cli matrix --profile quick \
	  --jobs $${REPRO_JOBS:-1}

# Fresh state dir each run: a rerun repeats the same seeded round, and
# a new FUZZ_SEED never meets a state dir holding another seed.
fuzz:
	rm -rf .fuzz_state
	PYTHONPATH=src $(PYTHON) -m repro.cli farm run --profile quick \
	  --round-trials $${FUZZ_TRIALS:-100} --seed $${FUZZ_SEED:-0} \
	  --jobs $${REPRO_JOBS:-1} --state .fuzz_state

# Checkpointed: a second `make farm` resumes the same state dir and
# keeps exploring where the first stopped (delete .repro_farm to reset).
farm:
	PYTHONPATH=src $(PYTHON) -m repro.cli farm run \
	  --config $${FARM_CONFIG:-examples/configs/quick-smoke.toml} \
	  --jobs $${REPRO_JOBS:-1}

opt-bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli opt-bench --profile quick \
	  --jobs $${REPRO_JOBS:-1} --emit-json $(OPT_BENCH_DIR)

# Same workload as the checked-in baseline (1500 entries x 1 KiB), so
# the default_total_s comparison is apples-to-apples.
store-bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli store-bench \
	  --emit-json $(STORE_BENCH_DIR)
	$(PYTHON) scripts/check_bench_regression.py \
	  $(STORE_BASELINE) $(STORE_BENCH_DIR)/BENCH_store.json \
	  --threshold 0.25 --metric default_total_s

# Fresh workdir each run: the dedupe arithmetic assumes an empty store.
service-smoke:
	rm -rf $(SERVICE_SMOKE_DIR)
	PYTHONPATH=src $(PYTHON) scripts/service_smoke.py \
	  --workdir $(SERVICE_SMOKE_DIR) --jobs $${REPRO_JOBS:-1}

# The last line of a run's output is its JSON verdict.
perf:
	mkdir -p $(PERF_DIR)
	for w in $(PERF_WORKLOADS); do \
	  $(PYTHON) perfbench/run.py --workload $$w --seed 0 --seconds 20 \
	    --trace 1 > $(PERF_DIR)/$$w.0.out || exit 1; \
	  cat $(PERF_DIR)/$$w.0.out; \
	  tail -n 1 $(PERF_DIR)/$$w.0.out | $(PYTHON) -c \
	    'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])' \
	    || { echo "perf: $$w reported incorrect outcomes"; exit 1; }; \
	done

# The regression gate compares against this artifact's meta block, so it
# must come from cache-less runs (--no-resume) to carry fresh timings.
# Of three runs, the one with the median total is installed, as CI gates
# on the median of three.  The baseline keeps the payload at the top
# level (the version-1 layout), where perfbench/selftest.py reads its rows.
refresh-baseline:
	rm -rf $(BASELINE_DIR)
	for i in 1 2 3; do \
	  PYTHONPATH=src $(PYTHON) -m repro.cli table2 --profile quick \
	    --jobs $${REPRO_JOBS:-1} --no-resume \
	    --emit-json $(BASELINE_DIR)/run$$i || exit 1; \
	done
	$(PYTHON) -c 'import json, sys; \
	  arts = sorted((json.load(open(p)) for p in sys.argv[2:]), \
	    key=lambda art: art["payload"]["meta"]["total_attack_time_s"]); \
	  art = arts[len(arts) // 2]; \
	  base = {"format": art["format"], **art["payload"]}; \
	  open(sys.argv[1], "w").write(json.dumps(base, indent=1, sort_keys=True) + "\n")' \
	  benchmarks/baselines/table2_quick.json $(BASELINE_DIR)/run*/BENCH_table2.json
	rm -rf $(BASELINE_DIR)
	@echo "baseline updated: review 'git diff benchmarks/baselines' and commit"

refresh-store-baseline:
	rm -rf $(BASELINE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.cli store-bench --emit-json $(BASELINE_DIR)
	cp $(BASELINE_DIR)/BENCH_store.json $(STORE_BASELINE)
	rm -rf $(BASELINE_DIR)
	@echo "store baseline updated: review 'git diff benchmarks/baselines' and commit"

docs:
	PYTHONPATH=src $(PYTHON) scripts/gen_cli_docs.py docs/cli.md

lint:
	$(RUFF) check .
	$(RUFF) format --check src/repro/runner scripts
