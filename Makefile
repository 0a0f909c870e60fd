# Developer entry points for the UGPU reproduction. All targets use only the
# standard Go toolchain; there are no external dependencies.

GO ?= go

.PHONY: all build test short race bench microbench vet check cover experiments bench-json clean

all: check

## build: compile every package and command
build:
	$(GO) build ./...

## test: full test suite (tier-1 gate together with build); it includes
## the determinism matrix (go test -run TestModeMatrix ./internal/experiments):
## every sweep figure byte-identical serial vs parallel vs fast-forward off,
## traced or not, digested or not
test:
	$(GO) test ./...

## short: quick test pass (skips multi-simulation sweeps)
short:
	$(GO) test -short ./...

## race: race-detector pass (short mode keeps the heavy sweeps out; the
## cluster suites still run long under the detector with packages racing
## for cores, so give them headroom past the 10m default)
race:
	$(GO) test -race -short -timeout 20m ./...

## bench: hot-path allocation benchmarks (ReportAllocs)
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

## microbench: the per-layer cycle-loop microbenchmarks (L1 MSHR, SM tick,
## PPMM tick), one iteration each so the gate exercises them; all report
## 0 allocs/op. Measure with e.g. BENCHTIME=2s.
BENCHTIME ?= 1x
microbench:
	$(GO) test -run '^$$' -bench '^Benchmark(MSHRAddRemove|Tick|PPMMTick)$$' \
		-benchtime=$(BENCHTIME) -benchmem ./internal/cache ./internal/sm ./internal/dram

## vet: static analysis; must be clean
vet:
	$(GO) vet ./...

## check: everything the CI gate runs
check: build vet test race microbench

## cover: per-package coverage summary (short mode keeps it fast)
cover:
	$(GO) test -short -cover ./...

## experiments: regenerate every figure at the recorded scale
experiments:
	$(GO) run ./cmd/experiments -fig all -cycles 150000 -epoch 25000 -mixes 3 -v

## bench-json: regenerate the serial-vs-parallel benchmark artifact
bench-json:
	$(GO) run ./cmd/experiments -bench-json BENCH_parallel.json -cycles 60000 -epoch 20000 -mixes 3

clean:
	$(GO) clean ./...
