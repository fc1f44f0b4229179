GO ?= go

.PHONY: build test race chaos fuzz check fmt vet arm64 deadcode loc bench bench-smoke bench-db bench-query bench-predict bench-retrain bench-cluster bench-kernels profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with real concurrency: the storage
# engine, the serving path and its shared cache and breaker primitives, the
# data-parallel training stack and the chaos harness. -count=2 -shuffle=on reruns in random order so tests leaking
# state into package globals or goroutines fail here, not in CI roulette.
race:
	$(GO) test -race -count=2 -shuffle=on \
		./internal/db ./internal/query ./internal/hwsim ./internal/server \
		./internal/tensor ./internal/train ./internal/gnn ./internal/core \
		./internal/baselines ./internal/chaos ./internal/serve \
		./internal/feats ./internal/onnx ./internal/graphhash \
		./internal/cluster ./internal/slo ./internal/lru ./internal/breaker

# End-to-end fault-injection storms (internal/chaos) with a pinned seed:
# every fault mode plus the mixed fleet, under the race detector. Replay a
# different schedule with: go test -race ./internal/chaos -args -chaos.seed=N
chaos:
	$(GO) test -race -v -run TestChaos ./internal/chaos -args -chaos.seed=20260805

# Native fuzzing, 20 s per target. The request path's parsers: DecodeBinary
# (no panic, bounded allocation) and, whenever the result validates, the
# indexed graph hash against the frozen reference and across a round trip;
# then the same for JSON graphs. The packed matmul kernel: bit for bit against
# the naive reference. The seed corpora already run as unit tests
# in `go test ./...`. Minimization is capped at 1 s because the default 60 s
# per coverage-expanding input would spend a 20 s budget shrinking one 10 KB
# zoo body.
fuzz:
	$(GO) test ./internal/graphhash -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime 20s -fuzzminimizetime 1s
	$(GO) test ./internal/graphhash -run '^$$' -fuzz '^FuzzGraphKeyJSON$$' -fuzztime 20s -fuzzminimizetime 1s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzPackedKernel$$' -fuzztime 20s -fuzzminimizetime 1s

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The non-amd64 build: internal/tensor's pair kernel is SSE2 assembly on amd64
# and the portable Go body elsewhere (kernel_other.go), which no amd64 build
# compiles. Cross-compiling offline keeps that file from rotting unseen.
arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor

# Functions of the root package and under internal/ that no binary links.
# tools/deadcode builds the roots (./cmd/*, ./examples/*, ./benchmark) with
# inlining off, reads their symbols with `go tool nm`, and fails unless the
# unlinked non-test functions are exactly the entries of
# tools/deadcode/allow.txt, each with its reason.
deadcode:
	$(GO) run ./tools/deadcode

check: fmt vet arm64 build deadcode race test

# Non-test Go line counts per package under internal/ and cmd/, plus the total
# (plain wc -l, comments and blank lines included): the number the ROADMAP's
# "net non-test LOC down" goal is measured in.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

bench:
	$(GO) test -bench . -benchtime 1x

# The repository benchmark as a gate (benchmark/README.md): its own tests, then
# one traced 10 s run of each workload against freshly built binaries. It
# compiles against internal/, parses the server's flags and first log line, and
# checks every answer, so a signature, flag, log-line or answer change it
# depends on fails here (non-zero exit, "correct":false) before the pipeline
# runs it. About two minutes.
bench-smoke:
	$(GO) vet ./benchmark
	$(GO) test ./benchmark
	for w in hit_replay predict_sweep ingest_miss mixed_routed; do \
		$(GO) run ./benchmark -workload $$w -seed 1 -seconds 10 -trace 1 || exit 1; \
	done

# Storage-engine baselines (EXPERIMENTS.md): group-commit insert throughput
# per durability mode, the cache-hit read path, snapshot scans vs writers.
bench-db:
	$(GO) test ./internal/db -run '^$$' \
		-bench 'InsertThroughput|QueryHotPath|SnapshotScanWhileWriting' -benchtime 1s

# Serving-path baselines (BENCH_query.json): L1 vs database hit latency, the
# allocation-free plan-less prediction (a width-1 PredictSamplesInto through
# the one packed forward), the memo hit, and the blocked matmul kernel.
bench-query:
	$(GO) test ./internal/query -run '^$$' -bench 'BenchmarkQueryHit' -benchmem -benchtime 1s
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkPredictSteadyState|BenchmarkPredictMemoGet' -benchmem -benchtime 1s
	$(GO) test ./internal/tensor -run '^$$' -bench 'BenchmarkMatmul' -benchmem -benchtime 1s

# Micro-batched prediction throughput (BENCH_predict.json): PredictSamplesInto
# through the packed forward at increasing widths, reporting graphs/s and
# allocs/op.
bench-predict:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkPredictBatch' -benchmem -benchtime 1s

# Online-retraining baselines (BENCH_retrain.json): engine hot-swap latency,
# the hot-path snapshot read, one full retrain cycle (snapshot → train →
# validate → swap) and the scheduler's uncertainty scoring.
bench-retrain:
	$(GO) test ./internal/serve -run '^$$' \
		-bench 'BenchmarkEngineSwap|BenchmarkEngineSnapshot|BenchmarkRetrainCycle|BenchmarkSchedulerScore' \
		-benchmem -benchtime 1s

# Cluster-serving baselines (BENCH_cluster.json): the router-hop tax on a
# warm L1 hit (direct vs routed) and each routing policy's aggregate L1 hit
# rate over a three-replica repeated-graph workload.
bench-cluster:
	$(GO) test ./internal/server -run '^$$' \
		-bench 'BenchmarkRouterOverhead|BenchmarkClusterPolicyL1' \
		-benchmem -benchtime 1s

# Inference-kernel baselines (BENCH_kernels.json): the packed pair matmul
# kernel on synthetic shapes and on the default predictor's SAGE-layer shape,
# the forward it feeds with a compiled plan (Predict) and without one (a
# width-1 PredictSamplesInto), and the allocation-lean L2 point read.
bench-kernels:
	$(GO) test ./internal/tensor -run '^$$' -bench 'BenchmarkMatmul' -benchmem -benchtime 1s
	$(GO) test ./internal/core -run '^$$' \
		-bench 'BenchmarkPredictPlanned|BenchmarkPredictSteadyState' -benchmem -benchtime 1s
	$(GO) test ./internal/db -run '^$$' -bench 'BenchmarkPointRead' -benchmem -benchtime 1s

# Profile the serving hot paths: the database hit as the daemon's handler runs
# it (BenchmarkServeQueryHit: JSON, base64, onnx decode + index, graph hash, L1
# probe), the pinned-seed planned-predict loop on a warm plan cache, and the
# fresh-graph predict that predict_sweep requests take (BenchmarkPredictFresh:
# extraction, hash, plan build, forward; no plan-cache hits). CPU and
# allocation pprof captures, then the top-10 cumulative frames of each. The
# indexed graph form (DESIGN.md §16) and the kernel/fusion/plan work (§15) were
# steered by exactly these views; rerun after touching either path to see
# where time moved.
profile:
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServeQueryHit' -benchtime 2s \
		-cpuprofile $(CURDIR)/hit_cpu.prof -memprofile $(CURDIR)/hit_mem.prof
	$(GO) tool pprof -top -nodecount=10 -cum $(CURDIR)/hit_cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(CURDIR)/hit_mem.prof
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkPredictPlanned' -benchtime 2s \
		-cpuprofile $(CURDIR)/cpu.prof -memprofile $(CURDIR)/mem.prof
	$(GO) tool pprof -top -nodecount=10 -cum $(CURDIR)/cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(CURDIR)/mem.prof
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkPredictFresh' -benchtime 2s \
		-cpuprofile $(CURDIR)/fresh_cpu.prof -memprofile $(CURDIR)/fresh_mem.prof
	$(GO) tool pprof -top -nodecount=10 -cum $(CURDIR)/fresh_cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects $(CURDIR)/fresh_mem.prof
