# Developer entry points for the UGPU reproduction. All targets use only the
# standard Go toolchain; there are no external dependencies.

GO ?= go

.PHONY: all build test short race bench microbench vet check cover fault-smoke serve-smoke failover-smoke gray-smoke power-smoke trace-smoke ff-smoke digest-smoke experiments bench-json clean

all: check

## build: compile every package and command
build:
	$(GO) build ./...

## test: full test suite (tier-1 gate together with build)
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

## fault-smoke: short degraded-mode sweep; serial and parallel runs of the
## same fault seed must produce byte-identical reports (CI smoke job)
FAULT_SMOKE_FLAGS = -fig faults -cycles 60000 -epoch 15000 -mixes 2 \
	-faults "sm=2,group=1,mig=0.05" -fault-seed 7
fault-smoke:
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -parallel 1 > faults-serial.txt
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -parallel 8 > faults-parallel.txt
	cmp faults-serial.txt faults-parallel.txt
	cat faults-serial.txt
	rm -f faults-serial.txt faults-parallel.txt

## cover: per-package coverage summary (short mode keeps it fast)
cover:
	$(GO) test -short -cover ./...

## serve-smoke: short online-serving sweep; serial and parallel runs of the
## same arrival seed must produce byte-identical reports (CI smoke job)
SERVE_SMOKE_FLAGS = -fig serve -cycles 40000 -epoch 10000 -serve-seed 9
serve-smoke:
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -parallel 1 > serve-serial.txt
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -parallel 8 > serve-parallel.txt
	cmp serve-serial.txt serve-parallel.txt
	cat serve-serial.txt
	rm -f serve-serial.txt serve-parallel.txt

## failover-smoke: short cluster-failover sweep; kills one of four GPUs
## mid-run, restores its tenants from checkpoints, and re-dispatches them to
## the survivors. Serial and parallel runs of the same arrival + crash seed
## must produce byte-identical reports and merged traces (CI smoke job)
FAILOVER_SMOKE_FLAGS = -fig failover -cycles 40000 -epoch 10000 -serve-seed 9 \
	-gpu-faults 1 -trace
failover-smoke:
	$(GO) run ./cmd/experiments $(FAILOVER_SMOKE_FLAGS) -parallel 1 -trace-out failover-serial.jsonl > failover-serial.txt
	$(GO) run ./cmd/experiments $(FAILOVER_SMOKE_FLAGS) -parallel 8 -trace-out failover-parallel.jsonl > failover-parallel.txt
	cmp failover-serial.txt failover-parallel.txt
	cmp failover-serial.jsonl failover-parallel.jsonl
	grep -q '"kind":"gpu-crash"' failover-serial.jsonl
	cat failover-serial.txt
	rm -f failover-serial.txt failover-parallel.txt failover-serial.jsonl failover-parallel.jsonl

## gray-smoke: short gray-failure sweep; one of four GPUs is degraded (not
## killed) mid-run, the health scorer convicts it against the peer median,
## and quarantine drains its latency-critical tenants with live progress.
## The figure, merged trace, and folded state digests must be byte-identical
## serial vs parallel AND with the fast-forward engine on vs off, and the
## false-positive row must be all zero (CI smoke job)
GRAY_SMOKE_FLAGS = -fig gray -cycles 30000 -serve-seed 9 -arrival-rate 25 -trace -digest-every 4
gray-smoke:
	$(GO) run ./cmd/experiments $(GRAY_SMOKE_FLAGS) -parallel 1 -trace-out gray-serial.jsonl > gray-serial.txt
	$(GO) run ./cmd/experiments $(GRAY_SMOKE_FLAGS) -parallel 8 -trace-out gray-parallel.jsonl > gray-parallel.txt
	cmp gray-serial.txt gray-parallel.txt
	cmp gray-serial.jsonl gray-parallel.jsonl
	$(GO) run ./cmd/experiments $(GRAY_SMOKE_FLAGS) -parallel 1 -no-fastforward -trace-out gray-noff.jsonl > gray-noff.txt
	cmp gray-serial.txt gray-noff.txt
	cmp gray-serial.jsonl gray-noff.jsonl
	grep -q '"kind":"gray-fault"' gray-serial.jsonl
	grep -q '"kind":"health"' gray-serial.jsonl
	grep -q 'state digest' gray-serial.txt
	grep 'false positives' gray-serial.txt | grep -vq '[1-9]'
	cat gray-serial.txt
	rm -f gray-serial.txt gray-parallel.txt gray-noff.txt \
		gray-serial.jsonl gray-parallel.jsonl gray-noff.jsonl

## power-smoke: short DVFS/power-cap sweep; the baseline, governed, and
## capped arms share one arrival schedule on a 2-GPU cluster. The figure,
## log, and merged trace must be byte-identical serial vs parallel AND with
## the fast-forward engine on vs off, and the trace must carry KPower events
## (CI smoke job)
POWER_SMOKE_FLAGS = -fig power -cycles 40000 -epoch 10000 -serve-seed 9 -trace
power-smoke:
	$(GO) run ./cmd/experiments $(POWER_SMOKE_FLAGS) -parallel 1 -trace-out power-serial.jsonl > power-serial.txt
	$(GO) run ./cmd/experiments $(POWER_SMOKE_FLAGS) -parallel 8 -trace-out power-parallel.jsonl > power-parallel.txt
	cmp power-serial.txt power-parallel.txt
	cmp power-serial.jsonl power-parallel.jsonl
	$(GO) run ./cmd/experiments $(POWER_SMOKE_FLAGS) -parallel 1 -no-fastforward -trace-out power-noff.jsonl > power-noff.txt
	cmp power-serial.txt power-noff.txt
	cmp power-serial.jsonl power-noff.jsonl
	grep -q '"kind":"power"' power-serial.jsonl
	cat power-serial.txt
	rm -f power-serial.txt power-parallel.txt power-noff.txt \
		power-serial.jsonl power-parallel.jsonl power-noff.jsonl

## trace-smoke: traced sweep determinism; the JSONL event stream and the
## rendered figure must be byte-identical serial vs parallel, healthy and
## under fault injection (CI smoke job). Note: `go test ./internal/...`
## additionally asserts results are unchanged with tracing off and that the
## disabled tracer allocates nothing on the simulation hot path.
TRACE_SMOKE_FLAGS = -fig faults,serve -cycles 60000 -epoch 15000 -mixes 2 \
	-fault-seed 7 -serve-seed 9 -trace
trace-smoke:
	$(GO) run ./cmd/experiments $(TRACE_SMOKE_FLAGS) -parallel 1 -trace-out trace-serial.jsonl > trace-fig-serial.txt
	$(GO) run ./cmd/experiments $(TRACE_SMOKE_FLAGS) -parallel 8 -trace-out trace-parallel.jsonl > trace-fig-parallel.txt
	cmp trace-serial.jsonl trace-parallel.jsonl
	cmp trace-fig-serial.txt trace-fig-parallel.txt
	$(GO) run ./cmd/experiments $(TRACE_SMOKE_FLAGS) -faults "sm=2,group=1,mig=0.05" -parallel 1 -trace-out trace-faults-serial.jsonl > /dev/null
	$(GO) run ./cmd/experiments $(TRACE_SMOKE_FLAGS) -faults "sm=2,group=1,mig=0.05" -parallel 8 -trace-out trace-faults-parallel.jsonl > /dev/null
	cmp trace-faults-serial.jsonl trace-faults-parallel.jsonl
	wc -l trace-serial.jsonl trace-faults-serial.jsonl
	rm -f trace-serial.jsonl trace-parallel.jsonl trace-faults-serial.jsonl trace-faults-parallel.jsonl trace-fig-serial.txt trace-fig-parallel.txt

## ff-smoke: fast-forward determinism; the fault and serve smokes (including
## their traced JSONL streams) must be byte-identical with the fast-forward
## engine on (default) and off (-no-fastforward) (CI smoke job)
ff-smoke:
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -parallel 1 -trace-out ff-faults-on.jsonl > ff-faults-on.txt
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -parallel 1 -no-fastforward -trace-out ff-faults-off.jsonl > ff-faults-off.txt
	cmp ff-faults-on.txt ff-faults-off.txt
	cmp ff-faults-on.jsonl ff-faults-off.jsonl
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -parallel 1 -trace-out ff-serve-on.jsonl > ff-serve-on.txt
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -parallel 1 -no-fastforward -trace-out ff-serve-off.jsonl > ff-serve-off.txt
	cmp ff-serve-on.txt ff-serve-off.txt
	cmp ff-serve-on.jsonl ff-serve-off.jsonl
	cat ff-faults-on.txt ff-serve-on.txt
	rm -f ff-faults-on.txt ff-faults-off.txt ff-serve-on.txt ff-serve-off.txt \
		ff-faults-on.jsonl ff-faults-off.jsonl ff-serve-on.jsonl ff-serve-off.jsonl

## digest-smoke: state-digest mode-invariance; the fault, serve, and failover
## smokes run with per-epoch state digesting on (-digest), and each figure's
## folded "state digest" line — a chained FNV digest of every stateful
## component of every cell — must be byte-identical across serial vs parallel
## fan-out and with the fast-forward engine on vs off. These sweeps run at
## nominal DVFS (no governor), so the digest covers the same state the
## power-smoke arms start from. A missing digest line fails the run
## (CI smoke job)
digest-smoke:
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -digest -parallel 1 > digest-faults-serial.txt
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -digest -parallel 8 > digest-faults-parallel.txt
	$(GO) run ./cmd/experiments $(FAULT_SMOKE_FLAGS) -digest -parallel 1 -no-fastforward > digest-faults-noff.txt
	grep "state digest" digest-faults-serial.txt
	cmp digest-faults-serial.txt digest-faults-parallel.txt
	cmp digest-faults-serial.txt digest-faults-noff.txt
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -digest -parallel 1 > digest-serve-serial.txt
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -digest -parallel 8 > digest-serve-parallel.txt
	$(GO) run ./cmd/experiments $(SERVE_SMOKE_FLAGS) -digest -parallel 1 -no-fastforward > digest-serve-noff.txt
	grep "state digest" digest-serve-serial.txt
	cmp digest-serve-serial.txt digest-serve-parallel.txt
	cmp digest-serve-serial.txt digest-serve-noff.txt
	$(GO) run ./cmd/experiments $(FAILOVER_SMOKE_FLAGS) -digest -parallel 1 -trace-out digest-failover.jsonl > digest-failover-serial.txt
	$(GO) run ./cmd/experiments $(FAILOVER_SMOKE_FLAGS) -digest -parallel 8 -trace-out digest-failover.jsonl > digest-failover-parallel.txt
	$(GO) run ./cmd/experiments $(FAILOVER_SMOKE_FLAGS) -digest -parallel 1 -no-fastforward -trace-out digest-failover.jsonl > digest-failover-noff.txt
	grep "state digest" digest-failover-serial.txt
	cmp digest-failover-serial.txt digest-failover-parallel.txt
	cmp digest-failover-serial.txt digest-failover-noff.txt
	rm -f digest-faults-serial.txt digest-faults-parallel.txt digest-faults-noff.txt \
		digest-serve-serial.txt digest-serve-parallel.txt digest-serve-noff.txt \
		digest-failover-serial.txt digest-failover-parallel.txt digest-failover-noff.txt \
		digest-failover.jsonl

## experiments: regenerate every figure at the recorded scale
experiments:
	$(GO) run ./cmd/experiments -fig all -cycles 150000 -epoch 25000 -mixes 3 -v

## bench-json: regenerate the serial-vs-parallel benchmark artifact
bench-json:
	$(GO) run ./cmd/experiments -bench-json BENCH_parallel.json -cycles 60000 -epoch 20000 -mixes 3

clean:
	$(GO) clean ./...
