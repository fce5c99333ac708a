# Convenience targets for the reproduction workflow.

.PHONY: install test deep lint bench bench-smoke report examples clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python -m pytest -x -q

# Mirrors the CI deep job: integration/fault/oracle/adaptive/onboard
# suites plus the transfer-aware perfmodel, transformer-workload and
# kernel-family suites, then five runs of the serving and routing
# concurrency suites, then the cross-process pipeline, fleet and
# onboarding cache round trips (budget change re-runs only the
# onboard-* branch), then every example script.
deep:
	PYTHONPATH=src python -m pytest \
		tests/integration tests/testing tests/serving tests/pipeline \
		tests/fleet tests/obs tests/adaptive tests/onboard \
		tests/perfmodel tests/workloads tests/kernels tests/experiments \
		-q -p no:randomly
	for run in 1 2 3 4 5; do \
		PYTHONPATH=src python -m pytest tests/serving/test_stress.py \
			tests/serving/test_hot_path.py tests/serving/test_direct_lookup.py \
			tests/fleet/test_lock_free_routing.py \
			-q -p no:randomly || exit 1; \
	done
	PYTHONPATH=src python -m repro.cli pipeline run \
		--store /tmp/repro-store --networks mobilenet_v2
	PYTHONPATH=src python -m repro.cli pipeline run \
		--store /tmp/repro-store --networks mobilenet_v2 --assert-all-cached
	PYTHONPATH=src python -m repro.cli fleet build \
		--store /tmp/repro-fleet-store --networks mobilenet_v2 \
		--device-ids r9-nano compute-heavy latency-bound
	PYTHONPATH=src python -m repro.cli fleet build \
		--store /tmp/repro-fleet-store --networks mobilenet_v2 \
		--device-ids r9-nano compute-heavy latency-bound --assert-all-cached
	PYTHONPATH=src python -m repro.cli onboard run \
		--store /tmp/repro-fleet-store --target compute-heavy \
		--device-ids r9-nano compute-heavy latency-bound \
		--networks mobilenet_v2 --trees 8 --rounds 3
	PYTHONPATH=src python -m repro.cli onboard run \
		--store /tmp/repro-fleet-store --target compute-heavy \
		--device-ids r9-nano compute-heavy latency-bound \
		--networks mobilenet_v2 --trees 8 --rounds 3 --assert-all-cached
	PYTHONPATH=src python -m repro.cli onboard run \
		--store /tmp/repro-fleet-store --target compute-heavy \
		--device-ids r9-nano compute-heavy latency-bound \
		--networks mobilenet_v2 --trees 8 --rounds 3 \
		--budget-fraction 0.12 --assert-sources-cached
	$(MAKE) examples

# Mirrors the CI lint job (requires ruff + mypy on PATH).
lint:
	ruff check src/repro
	ruff format --check src/repro
	mypy src/repro

# Every benchmark: the bench-smoke gates below, the ledger's self-tests
# and the full-scale split-variance gate (~20 s) that tier-1 cannot
# afford.  Gates without a ``benchmark`` fixture run too.
bench:
	PYTHONPATH=src python -m pytest benchmarks/

# Mirrors the CI bench-smoke job: throughput, obs-overhead, compiled
# hot-path, batched-routing, complete-cost (<= 0.2x a routed select),
# adaptive-layer and transfer-aware placement gates, the onboarding
# quality/cost gate (95% quality at a 10% budget), a 5 s loadgen smoke
# with a qps floor, a drifted run with a gap-closure floor, the
# full-stride placement-flip experiment gate and, last so that a
# failure there cannot stop the others, the performance ledger's
# self-tests.
bench-smoke:
	PYTHONPATH=src python -m pytest \
		benchmarks/test_bench_serving.py benchmarks/test_bench_obs.py \
		benchmarks/test_bench_codegen.py benchmarks/test_bench_adaptive.py \
		benchmarks/test_bench_fleet.py \
		benchmarks/test_bench_onboard.py benchmarks/test_bench_placement.py \
		-q -p no:randomly --benchmark-json=bench-results.json
	PYTHONPATH=src python -m repro.cli loadgen run \
		--qps 40000 --duration 5 --workers 4 \
		--min-qps 10000 --report-json loadgen-report.json
	PYTHONPATH=src python -m repro.cli loadgen run \
		--adaptive --no-pace --qps 4000 --duration 3 --workers 4 \
		--zipf 1.3 --drift-at 0.35 --min-gap-closure 0.5 \
		--report-json loadgen-drift-report.json
	PYTHONPATH=src python -m repro.cli placement run \
		--report-json placement-flip-report.json
	PYTHONPATH=src python -m pytest benchmarks/ledger -q -p no:randomly

report:
	python examples/reproduce_paper.py

examples:
	python examples/quickstart.py
	python examples/deploy_cpp_selector.py
	python examples/network_inference.py
	python examples/new_hardware.py
	python examples/sparse_generalization.py
	python examples/convolution_layers.py

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
