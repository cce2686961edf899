# Developer entry points.  The python toolchain is assumed on PATH; every
# target is pure stdlib + pytest.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test conformance differential invalidation smoke metrics-smoke bench bench-store bench-invalidation paper example lint lint-rules certify

test:
	$(PYTHON) -m pytest -x -q

# Static analysis over the codebase itself: ruff (pyflakes + pycodestyle
# error families) and mypy (strict-leaning on repro.lint / repro.core).
# Both are CI-only dev deps (requirements-dev.txt), config in
# pyproject.toml.
lint:
	$(PYTHON) -m ruff check src tests
	$(PYTHON) -m mypy -p repro.lint -p repro.core

# The domain analyzer over the shipped rule sets: `repro lint` must report
# zero error-level findings on HOSP and DBLP (warnings are expected —
# both sets legitimately trip W202/W105/I107).  CI uploads the SARIF.
lint-rules:
	$(PYTHON) -m repro.lint.fixtures --out-dir $${LINT_FIXTURES:-/tmp/lint-fixtures}
	$(PYTHON) -m repro lint \
		--rules $${LINT_FIXTURES:-/tmp/lint-fixtures}/hosp.rules.json \
		--master $${LINT_FIXTURES:-/tmp/lint-fixtures}/hosp.master.csv \
		--fail-on error --format sarif \
		--output $${LINT_FIXTURES:-/tmp/lint-fixtures}/hosp.sarif
	$(PYTHON) -m repro lint \
		--rules $${LINT_FIXTURES:-/tmp/lint-fixtures}/dblp.rules.json \
		--master $${LINT_FIXTURES:-/tmp/lint-fixtures}/dblp.master.csv \
		--fail-on error --format sarif \
		--output $${LINT_FIXTURES:-/tmp/lint-fixtures}/dblp.sarif

# Exact certification gate over the shipped rule sets: the full analyzer
# (structural + master-aware + E205/W206/I208) must reproduce the
# committed golden JSON/SARIF byte-for-byte, and a `--fix` pass over the
# already-clean sets must be a no-op (fix-it idempotence) whose JSON
# report is the golden JSON too.  Runs from inside the fixtures dir so
# artifact URIs in the goldens stay relative.
CERTIFY_DIR ?= /tmp/lint-fixtures
certify:
	$(PYTHON) -m repro.lint.fixtures --out-dir $(CERTIFY_DIR)
	for name in hosp dblp; do \
		cd $(CERTIFY_DIR) && \
		PYTHONPATH=$(CURDIR)/src $(PYTHON) -m repro lint \
			--rules $$name.rules.json --master $$name.master.csv \
			--fail-on error --format json \
			--output $$name.certify.json && \
		PYTHONPATH=$(CURDIR)/src $(PYTHON) -m repro lint \
			--rules $$name.rules.json --master $$name.master.csv \
			--fail-on error --format sarif \
			--output $$name.certify.sarif && \
		cd $(CURDIR) && \
		diff -u tests/golden/$$name.certify.json \
			$(CERTIFY_DIR)/$$name.certify.json && \
		diff -u tests/golden/$$name.certify.sarif \
			$(CERTIFY_DIR)/$$name.certify.sarif && \
		cp $(CERTIFY_DIR)/$$name.rules.json $(CERTIFY_DIR)/$$name.fixed.json && \
		cd $(CERTIFY_DIR) && \
		PYTHONPATH=$(CURDIR)/src $(PYTHON) -m repro lint \
			--rules $$name.fixed.json --master $$name.master.csv \
			--fix --format json --output $$name.fix.json > /dev/null && \
		cd $(CURDIR) && \
		cmp $(CERTIFY_DIR)/$$name.rules.json $(CERTIFY_DIR)/$$name.fixed.json && \
		diff -u tests/golden/$$name.certify.json \
			$(CERTIFY_DIR)/$$name.fix.json \
		|| exit 1; \
	done

# The MasterStore contract suite against every backend (memory, sqlite
# file + :memory:, remote HTTP).  A subset of `test`, but named so a
# backend regression is attributable on its own line (CI runs it as a
# dedicated step).
conformance:
	$(PYTHON) -m pytest tests/test_store_conformance.py -q

# The round's fix is read off the unique chase instead of a TransFix rerun,
# and the chase decides conflicts on each read's distinct master values:
# the chase-vs-TransFix differential test, the value-level fan-out
# properties (many rows per key, master guards, list vs tuple stores) and
# the chase's cross-checks against exhaustive order exploration.  The
# Suggest+ reuse check tests rules lazily inside its closure: its
# differential test holds it to the eager applicable-rules check on a
# mutating master.  The chase and the reuse check run on Σ compiled into
# positional plans: their differential test holds both to the name-based
# dict chase and survival test on permuted schemas, partial mappings and
# a mutating master.  A subset of `test`, named so a divergence is
# attributable on its own line (CI step).
differential:
	$(PYTHON) -m pytest tests/test_chase_transfix_differential.py \
		tests/test_chase_fanout.py tests/test_chase_explorer.py \
		tests/test_property_based.py \
		tests/test_bdd_reuse_differential.py \
		tests/test_program_differential.py -q

# Every master-delta consumer against a fresh rebuild: the region guard
# (kept regions equal a fresh CompCRegion), the FootprintIndex it finds
# the checks a changed row touched through, the footprints the chase and
# the pattern check report (every keyed read lies in them), and the
# delta-vs-full-drop equivalence fuzz.  A subset of `test`, named so a
# divergence in a delta consumer is attributable on its own line (CI step).
invalidation:
	$(PYTHON) -m pytest tests/test_region_guard.py \
		tests/test_footprint_index.py tests/test_footprints.py \
		"tests/test_chase_reads.py::test_chase_reads_each_rule_key_once_with_one_batch_per_step" \
		"tests/test_store_equivalence.py::test_hypothesis_delta_invalidation_matches_full_drop" -q

# Quick perf smoke: seeds/refreshes BENCH_batch.json at reduced scale and
# fails if the batch engine loses its >=2x margin over naive fix_stream.
# Covers both ways an engine runs: the CPU-bound oracle series runs the
# same workload inline and on a 2-worker process pool (the process
# speedup floor is enforced on >=2-core hosts).
# (2 workers cap the ideal speedup at 2x, so the smoke floor is 1.2x;
# the full bench runs 4 workers against the default 2x floor.)
smoke:
	$(PYTHON) benchmarks/bench_batch_throughput.py --quick --concurrency 2 --min-process-speedup 1.2

# End-to-end telemetry gate: a live MasterServer (sqlite backing) serves
# GET /metrics while the real CLI batch-repair path runs against it over
# the remote backend with --progress; the exposition is scraped mid-batch
# and validated with the strict Prometheus parser, and the `repro
# metrics` subcommand is exercised in both formats.
metrics-smoke:
	$(PYTHON) benchmarks/metrics_smoke.py

# Full-scale throughput trajectory (the committed BENCH_batch.json).
bench:
	$(PYTHON) benchmarks/bench_batch_throughput.py

# Master-store backends: memory vs sqlite vs remote (HTTP read-through)
# throughput, raw probe latency (cold vs warm cache; remote warm must stay
# within 5x of sqlite) and the cost of an incremental master update
# invalidating the shared caches; asserts all backends fix identically and
# regenerates the committed BENCH_store.json.
bench-store:
	$(PYTHON) benchmarks/bench_store.py

# Delta-invalidation gate at smoke scale: a sustained master-mutation
# series must resolve every version bump through per-key purges (no full
# drops) and the post-update rerun must beat a delta_invalidation=False
# reference engine by >=5x on the same machine (the floor the committed
# full-mode BENCH_store.json also enforces).
bench-invalidation:
	$(PYTHON) benchmarks/bench_store.py --quick --enforce-speedup \
		--output $${BENCH_INVALIDATION:-/tmp/BENCH_store_invalidation.json}

# The paper's own shapes (Tables 1-2, Figs. 9-12, ablations A1-A4): every
# benchmarks/bench_*.py module asserts its figure's qualitative shape.
# pytest.ini keeps benchmarks/ out of tier-1 collection, so the module
# pattern is given here.  Without pytest-benchmark (or under
# -p no:benchmark) benchmarks/conftest.py calls each timed body once.
paper:
	$(PYTHON) -m pytest benchmarks/ -o python_files='bench_*.py' -q

example:
	$(PYTHON) examples/batch_throughput.py
