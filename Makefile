# Tier-1 verification plus the hot-path benchmark smoke. `make ci`
# is what scripts/ci.sh runs and what a PR must keep green.

GO ?= go

.PHONY: ci build cross-build bench-build bench-residue vet fmt-check staticcheck test race stress bench-smoke cover bench fuzz-smoke golden docs-check examples loc

ci: build cross-build bench-build vet fmt-check staticcheck docs-check test race stress bench-smoke cover

build:
	$(GO) build ./...

# The assembly kernels in internal/tensor are amd64-only; every one has
# a portable counterpart (outer_other.go, rowvec_other.go,
# elemvec_other.go) that no amd64 build compiles. Build
# the tree and vet that package for arm64 so a kernel added without its
# counterpart fails here.
cross-build:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/tensor/

# The benchmark is its own module (bench/go.mod, `replace orbit =>
# ../`), so `./...` never compiles it: removing an export it imports
# would break `bash bench/run.sh` with every other gate green. Vet and
# run its self-tests against this checkout (≈ 8 s).
bench-build:
	$(GO) vet -C bench ./...
	$(GO) test -C bench .

# vet's asmdecl pass checks every assembly frame against its Go
# declaration. The grep keeps R14 and R15 out of the kernels: they are
# g and, under -dynlink, the GOT base, and the assembler accepts both
# silently.
vet:
	$(GO) vet ./...
	! grep -nE '\bR1[45]\b' internal/tensor/*.s internal/tensor/*.h

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond vet. The hosted CI workflow installs the
# binary; locally the stage is skipped (loudly) when it's absent, so
# `make ci` stays runnable on a fresh machine without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: binary not installed, skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# Race stage over the concurrency-heavy layers: the comm rendezvous /
# async-handle machinery, the tensor-parallel block and the Hybrid-STOP
# core engine's overlap paths, the elastic fault-tolerant training loop
# in internal/train, the inference subsystem's concurrent rollout
# workers in internal/infer, and the serving resilience layer
# in internal/serve (admission queue, replica-pull batching, replica
# failover, chaos tests) plus orbit-serve's SIGTERM drain. The async
# cross-talk, batcher model, and serving chaos tests are specifically
# written to be meaningful under -race. internal/guard
# adds the training-run supervisor: the watchdog goroutine's verdicts
# racing live rank goroutines (the stalled-TP-rank recovery test is
# written for this stage) and the rollback/replay loop.
race:
	$(GO) test -race ./internal/tensor/... ./internal/quant/... ./internal/nn/... ./internal/fft/... ./internal/afno/... ./internal/optim/... ./internal/comm/... ./internal/parallel/... ./internal/core/... ./internal/pp/... ./internal/train/... ./internal/guard/... ./internal/infer/... ./internal/plan/... ./internal/serve/... ./cmd/orbit-serve/...

# Timing-luck gate over the serving path and the training side (the
# collectives, the pipeline and Hybrid-STOP engines, the elastic loop
# and its supervisor): twenty runs at one and at two Ps. A test that
# passes by winning a race with a timer, or only when the host has a
# spare core, fails here instead of on a reviewer's 2-core machine.
stress:
	$(GO) test -count=20 -cpu 1,2 ./internal/serve/... ./internal/infer/... ./cmd/orbit-serve/...
	$(GO) test -count=20 -cpu 1,2 ./internal/comm/... ./internal/pp/... ./internal/core/... ./internal/train/... ./internal/guard/...

# Documentation gates: every package must carry a package comment
# (scripts/check_pkgdoc.sh), every -flag in README.md's command-line
# table must be defined by its binary (scripts/check_flags.sh), and
# every backticked `pkg.Name` of an internal package in README.md,
# ARCHITECTURE.md and PERFORMANCE.md must be declared there
# (scripts/check_docrefs.sh); each checker proves it can fail via its
# own negative self-test. Run alongside `examples` to keep the README's
# code paths compiling and asserting.
docs-check:
	sh scripts/check_pkgdoc.sh
	sh scripts/check_pkgdoc.sh --selftest
	sh scripts/check_flags.sh
	sh scripts/check_flags.sh --selftest
	sh scripts/check_docrefs.sh
	sh scripts/check_docrefs.sh --selftest

# The runnable documentation: Example* functions in
# orbit_example_test.go are the README quickstart and planner usage,
# compiled and output-asserted by go test. -count=2 catches examples
# that leak state between runs. Then every examples/* program runs once
# (≈ 1 s in all), built into and run from a temporary directory, since
# quickstart writes its checkpoint into the working directory; faults
# and parallelism exit non-zero when their trajectory checks fail.
examples:
	$(GO) test -count=2 -run '^Example' .
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./examples/... && cd "$$dir" && \
	for e in *; do \
		echo "examples/$$e"; ./$$e >/dev/null || exit 1; \
	done

# Coverage gate over the checkpoint/restart-critical packages, with
# checked-in minimum thresholds (scripts/check_coverage.sh).
cover:
	sh scripts/check_coverage.sh

# One-iteration sanity pass over the attention hot path, a transformer
# block's forward+backward, the planner's query family, its 64-GPU
# query on the default knob grid (bucket variants included) and the bench
# model's planned forward (f32 and int8, batch 8): catches
# regressions that only appear under the benchmark harness (buffer
# reuse across iterations, kernel dispatch, the replay scratch across
# candidates) without paying full benchmark time in CI. The matrix
# kernel runs 2000 calls per workload shape (under a second in all) so
# that the GFLOP/s it prints mean something: the one-line reproducer of
# a kernel regression. The row kernels (AdamW, two-rank reduce storing
# and adding, sum of squares, LayerNorm forward / backward, the
# aggregation), the float32 elementwise ones (GELU, softmax, adds,
# scale, bias-gradient sum, max-abs, transpose), the quantized strip
# writer and one training-shape product print ns per element (per
# multiply-add for the product) at the workload sizes, Go loop and
# assembly, on one P: a row per kernel of PERFORMANCE.md's table. One elastic training step (every micro-batch and AdamW) of the
# benchmark's train shape runs on one worker and on TP2×PP2×FSDP2.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAttentionForward$$|BenchmarkTransformerBlockFwdBwd$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkMatMulKernel$$' -benchtime=2000x ./internal/tensor/
	$(GO) test -run '^$$' -bench 'BenchmarkRowKernels$$' -benchtime=2000x -cpu 1 ./internal/tensor/
	$(GO) test -run '^$$' -bench 'BenchmarkBest4Family$$|BenchmarkBest4Large$$|BenchmarkBest4Paper512$$' -benchtime=1x ./internal/plan/
	$(GO) test -run '^$$' -bench 'BenchmarkPlanForward$$' -benchtime=1x ./internal/infer/
	$(GO) test -run '^$$' -bench 'BenchmarkElasticStep$$' -benchtime=1x -benchmem ./internal/train/

# Full hot-path benchmark set with allocation counters — compare
# against BENCH_PR1.json (interleave seed and PR runs when updating
# that file; the host's absolute speed drifts).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMul256$$|BenchmarkAttentionForward$$|BenchmarkTransformerBlockFwdBwd$$|BenchmarkHybridSTOPStep$$' -benchmem -benchtime=1s .

# Runs the checkpoint, layout-flag and forecast-body fuzz targets over
# their committed seed corpus (no new fuzzing): regressions in the
# hardened parsers fail fast. TestFuzzGuardSeeds holds each config-guard
# seed to the guard it pins; TestGenerationRingsIgnoreGlobMetacharacters
# holds the generation listers to names, not glob patterns.
fuzz-smoke:
	$(GO) test -run 'FuzzLoadModel|FuzzLoadManifest|TestFuzzGuardSeeds|TestGenerationRingsIgnoreGlobMetacharacters' ./internal/ckpt/
	$(GO) test -run 'FuzzParseLayout' ./internal/pp/
	$(GO) test -run 'FuzzForecastBody' ./cmd/orbit-serve/

# Golden-value conformance: the frozen checkpoint's rollout must match
# the checked-in values to 1e-6, and a five-step TP2×PP2×FSDP2 and
# single-rank training run its stored losses and state hash exactly (on
# amd64). Regenerate with `go test ./internal/infer -run
# TestGoldenRollout -update` and `go test ./internal/train -run
# TestTrainTrajectoryGolden -update` — only for intentional numerics
# changes, in one commit, called out in the PR. -count=1: the runtime
# reads GOMAXPROCS, not the test, so the test cache would hand CI's
# `GOMAXPROCS=2 make golden` the result of the run before it.
golden:
	$(GO) test -count=1 -run 'TestGolden' ./internal/infer/
	$(GO) test -count=1 -run 'TestTrainTrajectoryGolden' ./internal/train/

# Non-test .go, .s and _test.go lines per package and in total, outside
# bench/. Not a gate: CHANGES.md quotes it before -> after.
loc:
	@sh scripts/loc.sh

# Where the linker put the benchmark's reference kernel. Its speed
# depends on the address mod 64, so `op_p50_ms` / `setup_s` of two
# builds compare only when both print the same residue (PERFORMANCE.md,
# "Reading and reproducing the benchmark reports"; ROADMAP 1(b) removes
# the need).
bench-residue:
	@bash bench/run.sh -h >/dev/null 2>&1 # builds exactly what the benchmark runs
	@addr=$$($(GO) tool nm .bench_build/orbit-bench | awk '$$3 == "main.(*refKernel).run" { print $$1 }'); \
	echo "main.(*refKernel).run 0x$$addr mod 64 = $$((0x$$addr % 64))"
