# FFS-VA reproduction build targets.
#
# `make ci` is the full gate: build, vet, and the complete test suite
# under the race detector (the pipeline's real-clock and concurrency
# tests only prove anything when raced). `make test` is the quick
# edit-compile loop; `make race` restricts -race to the concurrency-
# sensitive packages for a faster pre-push check.

GO ?= go

.PHONY: all build vet perfbench-vet perfbench-test lint lint-self fmt-check test race ci bench bench-gate bench-all bench-trace bench-cluster bench-consolidate bench-timeline trace-smoke

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench/ is its own module, so the root `go build ./...` never
# compiles it. Vet it against this checkout so a change to the packages
# it imports cannot leave the repository benchmark broken. Nothing may
# be downloaded: the module resolves the parent through a replace.
perfbench-vet:
	GOPROXY=off GOTOOLCHAIN=local $(GO) -C perfbench vet ./...

# perfbench-test runs the benchmark's own tests (seed purity, traced
# run digest equal to the untraced one) against this checkout, so a
# change to pipeline.Snapshot or the cascade cannot silently break what
# the benchmark measures. About 2 s.
perfbench-test:
	GOPROXY=off GOTOOLCHAIN=local $(GO) -C perfbench test ./...

# lint runs ffslint — the repo's own eight invariant analyzers (detnow,
# putcheck, poolrelease, dispositions, qconsume, spanend, maporder,
# gostop; see DESIGN.md §12) — plus a gofmt cleanliness check. The run
# is interprocedural by default (module-wide ownership summaries) and
# must finish inside the 30s budget; the wall time is printed so drift
# is visible in CI logs. Zero unsuppressed diagnostics is the bar.
lint: fmt-check
	$(GO) run ./cmd/ffslint -budget 30s ./...

# lint-self turns the analyzers on the packages that must stay clean
# under their own rules: the analysis implementation itself, and the
# timeline flight recorder (whose dump-writer goroutine, pooled reads,
# and map iterations are exactly what gostop/poolrelease/maporder
# police).
lint-self:
	$(GO) run ./cmd/ffslint -budget 30s ./internal/analysis ./internal/timeline

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The packages whose tests exercise real goroutines against shared state:
# the queues and pipeline (real-clock paths), the parallel compute
# kernels with their pooled buffers (worker pool, tensor/frame pools),
# the fault-injection + cluster failure/recovery paths, and the frame
# synthesizer whose lookahead renders on the pool's workers.
race:
	$(GO) test -race ./internal/queue ./internal/pipeline ./internal/par ./internal/vidgen ./internal/nn ./internal/detect ./internal/faults ./internal/cluster ./internal/cluster/sched ./internal/trace ./internal/obs ./internal/timeline

# The experiments suite alone needs ~20 min under -race (the virtual
# clock is cooperative, so the race detector's overhead doesn't
# parallelize); go test's default 600s per-binary timeout is too tight
# when the whole suite runs concurrently.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) perfbench-vet
	$(MAKE) perfbench-test
	$(MAKE) lint
	$(MAKE) lint-self
	$(GO) test -race -timeout 3600s ./...
	$(MAKE) trace-smoke
	$(MAKE) bench-gate
	$(MAKE) bench-cluster
	$(MAKE) bench-consolidate
	$(MAKE) bench-timeline

# trace-smoke proves the Perfetto export end to end: a quickstart run
# with tracing on, structurally validated by the stdlib-only checker.
trace-smoke:
	$(GO) run ./examples/quickstart -trace trace_smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck trace_smoke.json
	@rm -f trace_smoke.json

# bench sweeps the compute kernels and a wall-clock end-to-end run
# across GOMAXPROCS×pool widths {1,2,4,8}, recording per-width ns/op to
# BENCH_kernels.json.
bench:
	$(GO) run ./cmd/ffsbench -only kernels -scale quick

# bench-gate is the CI form of bench: it additionally fails on a missing
# multi-core speedup (>=1.5x end-to-end at width>=4 — auto-skipped with
# an explicit marker on hosts with too few cores to show one) or on a
# serial ns/op regression beyond 1.4x of the committed baseline.
bench-gate:
	$(GO) run ./cmd/ffsbench -only kernels -scale quick -gate

bench-all:
	$(GO) run ./cmd/ffsbench -scale quick

# bench-trace gates the tracing overhead: the standard workload with
# tracing off vs on must stay within 3% FPS, recorded in BENCH_trace.json.
bench-trace:
	$(GO) run ./cmd/ffsbench -only trace -scale quick

# bench-cluster sweeps concurrent-stream counts against a fixed fleet
# under both placement policies and records the max sustained level to
# BENCH_cluster.json. The sweep runs on the virtual clock with charged
# costs, so the figures are deterministic; -gate fails on any drop below
# the committed baseline (skipped, with an explicit marker, on hosts too
# small to spend the wall-clock on).
bench-cluster:
	$(GO) run ./cmd/ffsbench -only cluster -scale quick -gate

# bench-timeline gates the flight-recorder overhead: the traced
# standard workload with the timeline sampler + attribution on vs off
# must stay within 3% FPS, recorded in BENCH_timeline.json (skipped,
# with an explicit marker, on single-core hosts).
bench-timeline:
	$(GO) run ./cmd/ffsbench -only timeline -scale quick -gate

# bench-consolidate sweeps the consolidated fleet past the committed
# full-frame knee and measures the reference-bound tier (high TOR, GPU-1
# saturated) with and without object-level consolidation, recording both
# to BENCH_consolidate.json. -gate fails unless the consolidated fleet
# sustains more streams than the BENCH_cluster.json baseline (skipped,
# with an explicit marker, on single-core hosts).
bench-consolidate:
	$(GO) run ./cmd/ffsbench -only consolidate -scale quick -gate
