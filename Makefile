# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race fault fuzz bench bench-module bench-smoke bench-fmt bench-diff bench-gate bench-sweep experiments sweep-smoke fmt cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The race pass runs the concurrency-sensitive packages in -short mode so
# the heavy experiment sweeps are not repeated under the race detector;
# the dedicated race tests in these packages do not skip on -short.
test: race fault fuzz
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/workload ./internal/sim ./internal/trace ./internal/telemetry ./internal/cpu

# The fault-injection suite always runs under the race detector: it is the
# one place panics, corrupted captures, and worker cancellation all cross
# goroutine boundaries at once.
fault:
	$(GO) test -race ./internal/faultinject

# Short mutation pass over every decoder/parser fuzz target (the seed
# corpus alone is already replayed by plain `go test`). `go test -fuzz`
# accepts one target at a time, hence the loops. Raise FUZZTIME for a real
# fuzzing session. Minimizing a new input stops after 100 runs of the
# target: by default it runs for up to 60 s, and while the trace targets
# minimize their 10-300 KB store images no new inputs run.
FUZZTIME ?= 2s
fuzz:
	for t in FuzzStore FuzzCursor FuzzBlocks; do \
		$(GO) test -run '^$$' -fuzz "^$${t}$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/trace || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/benchfmt
	for t in FuzzParseSpec FuzzParseAxis; do \
		$(GO) test -run '^$$' -fuzz "^$${t}$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/sweep || exit 1; \
	done

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# benchmark/ is a Go module of its own (its go.mod replaces repro => ../),
# so the ./... patterns above never build it. It calls sim's public API;
# vet, build and test it whenever that API changes. Its tests run every
# workload at smoke scale and check the output digests against
# benchmark/testdata/expected.json.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# One-iteration benchmark smoke pass over the hot-path packages: catches
# benchmarks that no longer compile or crash, without the timing cost.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/trace ./internal/sim ./internal/cpu

# Write an N-repetition snapshot in the standard Go benchmark format. The
# first (warm-up) repetition is discarded so the one-time capture build
# does not pollute the samples; the result interops with stock benchstat.
BENCH_FMT ?= BENCH_baseline.txt
bench-fmt:
	$(GO) run ./cmd/tcsim -exp all -count 5 -warmup 1 -benchfmt $(BENCH_FMT) > /dev/null

# Compare bench snapshots with real statistics: per experiment, medians
# with order-statistic confidence intervals, a Mann-Whitney p-value, and
# an exit code that fires only on statistically significant regressions
# past the tolerance floor. Either side accepts a comma-separated list of
# benchfmt snapshots (tcsim -benchfmt -count N); every (file, repetition)
# contributes one sample. Override BENCH_NEW with a fresh
# `make bench-fmt BENCH_FMT=...` snapshot to gate a change against the
# committed baseline.
BENCH_OLD ?= BENCH_baseline.txt
BENCH_NEW ?= BENCH_baseline.txt
bench-diff:
	$(GO) run ./cmd/tcbenchdiff $(BENCH_OLD) $(BENCH_NEW)

# The CI significance gate, runnable locally: two 5-rep short-budget
# snapshots of the same build must not differ significantly. -tolerance
# is loose here because short budgets amplify relative jitter.
bench-gate:
	$(GO) build -o /tmp/tcsim ./cmd/tcsim
	$(GO) build -o /tmp/tcbenchdiff ./cmd/tcbenchdiff
	/tmp/tcsim -exp table2 -n 300000 -count 5 -warmup 1 -benchfmt /tmp/bench-old.txt -quiet > /dev/null
	/tmp/tcsim -exp table2 -n 300000 -count 5 -warmup 1 -benchfmt /tmp/bench-new.txt -quiet > /dev/null
	/tmp/tcbenchdiff -tolerance 0.05 /tmp/bench-old.txt /tmp/bench-new.txt

# Sweep wall-clock snapshot in the standard benchmark format: 5 recorded
# reps (after one warm-up) of the 568-point smoke grid, serial workers so
# the number measures the replay kernel rather than the scheduler.
# Committed baselines: BENCH_sweep.txt (auto gang width) and
# BENCH_sweep_direct.txt (SWEEP_GANG=1, fusion off). Diff them with
#   make bench-diff BENCH_OLD=BENCH_sweep_direct.txt BENCH_NEW=BENCH_sweep.txt
# to see the fusion win, or regenerate one side to significance-gate a
# sweep-performance change like the suite's bench-gate.
BENCH_SWEEP ?= BENCH_sweep.txt
SWEEP_GANG ?= 0
bench-sweep:
	$(GO) build -o /tmp/tcsweep ./cmd/tcsweep
	/tmp/tcsweep -spec sweep_smoke.json -workers 1 -gang $(SWEEP_GANG) -count 5 -warmup 1 -benchfmt $(BENCH_SWEEP) -quiet > /dev/null

# Regenerate every paper table and figure at full budgets.
experiments:
	$(GO) run ./cmd/tcsim -exp all

# The sweep engine smoke: builds the real tcsweep binary, interrupts a
# checkpointed run with SIGINT and with kill -9, resumes it, and requires
# the resumed frontier report byte-identical to an uninterrupted run.
sweep-smoke:
	$(GO) test -run 'TestE2E' -v ./cmd/tcsweep

fmt:
	gofmt -w .

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt cpu.prof mem.prof
