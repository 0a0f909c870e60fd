// Command experiments regenerates the tables and figures of the UGPU
// paper's evaluation on the simulated GPU.
//
// Usage:
//
//	experiments [-fig all|table2|2|3|4|10|11|12a|12b|13|14|15|16|micro|pagesize|faults|serve|failover|power|gray]
//	            [-cycles N] [-epoch N] [-mixes N] [-scale N] [-parallel N]
//	            [-faults spec] [-fault-seed N] [-watchdog-timeout N]
//	            [-arrival-rate R] [-qos-mix F] [-serve-seed N]
//	            [-gray-faults spec] [-probe-epochs N]
//	            [-power-cap W] [-dvfs=false]
//	            [-fastforward=false] [-digest-every N] [-bisect A,B]
//	            [-trace] [-trace-out path] [-trace-filter spec] [-pprof prefix]
//	            [-bench-json path] [-v]
//
// Every figure is a sweep of independent simulations fanned out through
// internal/parallel; -parallel bounds the worker pool (0 = GOMAXPROCS,
// 1 = serial). Output is byte-identical for any worker count.
//
// -trace attaches a per-cell deterministic event tracer to the sweep
// figures (faults, serve, failover, gray, power) and writes the events as
// JSONL to -trace-out (default trace.jsonl; a .json extension converts to
// Chrome trace_event format loadable in chrome://tracing or Perfetto).
// -trace-filter selects categories and minimum severity
// ("migration,fault,sev=warn"); the JSONL is byte-identical at any
// -parallel count. -pprof writes <prefix>.cpu.pprof and <prefix>.mem.pprof
// runtime profiles.
//
// -digest-every N records a machine-state digest chain every N epochs in
// every simulation and appends the folded chain to the sweep figures'
// notes: two invocations that differ only in execution mode (-parallel
// count, -fastforward, -trace) must print the same digest, and
// `go test -run TestModeMatrix ./internal/experiments` asserts exactly that.
// -bisect A,B localizes a divergence between two mode arms ('+'-joined
// tokens from ff, noff, trace, notrace): it binary-searches the two runs'
// digest chains for the first divergent epoch, then replays that epoch to
// name the first divergent component and cycle.
//
// -bench-json runs the selected figures twice (serial, then parallel),
// records wall-clock, allocation counts, and the hot-path micro-benchmark,
// and writes the comparison as JSON (see BENCH_parallel.json).
//
// Results reproduce the paper's shapes, not absolute numbers; see
// EXPERIMENTS.md for the recorded comparison.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ugpu/internal/experiments"
	"ugpu/internal/fault"
	"ugpu/internal/trace"
)

// checkGraySpec validates the -gray-faults flag value before any figure
// runs; a malformed spec is a usage error (exit 2), not a runtime failure.
func checkGraySpec(spec string) error {
	if _, err := fault.ParseGraySpec(spec); err != nil {
		return fmt.Errorf("-gray-faults: %w", err)
	}
	return nil
}

// gen is one runnable figure generator.
type gen struct {
	id  string
	run func() (experiments.Figure, error)
}

// gensFor binds every figure generator to the given options. Bindings
// capture opt by value, so serial and parallel variants coexist.
func gensFor(opt experiments.Options) []gen {
	return []gen{
		{"table2", opt.Table2Profiles},
		{"2", opt.Figure2},
		{"3", opt.Figure3},
		{"4", opt.Figure4},
		{"10", opt.Figure10},
		{"11", opt.Figure11},
		{"12a", opt.Figure12a},
		{"12b", opt.Figure12b},
		{"13", opt.Figure13},
		{"14", opt.Figure14},
		{"15", opt.Figure15},
		{"16", opt.Figure16},
		{"micro", opt.MigrationMicro},
		{"pagesize", opt.PageSizeSensitivity},
		{"faults", opt.FaultSweep},
		{"serve", opt.ServeSweep},
		{"failover", opt.FailoverSweep},
		{"power", opt.PowerSweep},
		{"gray", opt.GraySweep},
	}
}

// figureIDs lists every runnable figure id (the -fig error message and its
// test read this, so the list can never drift from gensFor).
func figureIDs() []string {
	ids := make([]string, 0, 20)
	for _, g := range gensFor(experiments.Options{}) {
		ids = append(ids, g.id)
	}
	return ids
}

// generatorFor returns the generator for one figure id under opt.
func generatorFor(opt experiments.Options, id string) (func() (experiments.Figure, error), bool) {
	for _, g := range gensFor(opt) {
		if g.id == id {
			return g.run, true
		}
	}
	return nil, false
}

// cli is everything main reads from the command line: the experiment
// options plus the run-mode switches that live outside them.
type cli struct {
	opt         experiments.Options
	figs        string // -fig: comma-separated ids or "all"
	bisect      string
	pprofPrefix string
	benchJSON   string
	tracePath   string // where the trace goes; "" when tracing is off
	verbose     bool
}

// parseArgs maps the command line onto a cli. It is the only place a flag
// becomes an experiments.Options field. Errors are usage errors: the
// message and the usage text have already gone to stderr.
func parseArgs(args []string, stderr io.Writer) (cli, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig         = fs.String("fig", "all", "which figure to regenerate (comma-separated ids or 'all')")
		cycles      = fs.Int("cycles", 0, "simulated cycles per run (default: experiment suite default)")
		epoch       = fs.Int("epoch", 0, "epoch length in cycles")
		mixes       = fs.Int("mixes", 0, "mixes per sweep")
		scale       = fs.Int("scale", 0, "footprint divisor")
		parallelN   = fs.Int("parallel", 0, "sweep fan-out workers (0 = GOMAXPROCS, 1 = serial)")
		faults      = fs.String("faults", "", "custom fault spec for the faults figure (e.g. \"sm=2,group=1,mig=0.05\")")
		faultSeed   = fs.Int64("fault-seed", 1, "seed for the deterministic fault injector")
		watchdog    = fs.Int("watchdog-timeout", 0, "watchdog window in cycles (-1 disables; 0 keeps the config default)")
		arrRate     = fs.Float64("arrival-rate", 0, "serve/gray figures: single arrival rate in jobs per 100K cycles (0 = figure default)")
		powerCap    = fs.Float64("power-cap", 0, "power figure: cluster power budget in watts (0 = derive 85%/70% cap points from the baseline arm)")
		dvfs        = fs.Bool("dvfs", true, "power figure: include the DVFS-governed and capped arms (false = nominal baseline only)")
		qosMix      = fs.Float64("qos-mix", 0, "serve figure: latency-critical arrival fraction (0 = the 0.5 default)")
		serveSeed   = fs.Int64("serve-seed", 0, "serve figure: arrival-schedule seed (0 = seed 1)")
		gpuFaults   = fs.Int("gpu-faults", 0, "failover figure: whole-GPU crashes to inject (0 = the default 1)")
		grayFaults  = fs.String("gray-faults", "", "gray figure: degradation spec (e.g. \"gpus=1,sm=3,noc=0.005,window=0.25\"; empty = default)")
		probeEpochs = fs.Int("probe-epochs", 0, "gray figure: clean probe epochs before a quarantined GPU re-admits LC work (0 = the default 4)")
		ckptEvery   = fs.Int("checkpoint-every", 0, "failover figure: checkpoint interval in cycles (0 = 2 epochs)")
		brownout    = fs.Bool("brownout", true, "failover figure: include the tiered-brownout arm")
		traceOn     = fs.Bool("trace", false, "record deterministic event traces for the sweep figures")
		traceOut    = fs.String("trace-out", "", "trace output path (implies -trace; default trace.jsonl; .json converts to Chrome trace_event)")
		traceFilter = fs.String("trace-filter", "", "trace category/severity filter, e.g. \"migration,fault,sev=warn\" (empty = everything)")
		fastForward = fs.Bool("fastforward", true, "event-driven fast-forward engine: skip provably-dead cycles and idle SMs (results are byte-identical either way)")
		digestEvery = fs.Int("digest-every", 0, "record a machine-state digest every N epochs and print the folded chain in sweep notes (0 = off)")
		bisect      = fs.String("bisect", "", "localize a state divergence between two mode arms, e.g. \"ff,noff\" or \"ff+trace,noff\" (tokens: ff, noff, trace, notrace)")
		pprofPrefix = fs.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.mem.pprof runtime profiles")
		benchJSON   = fs.String("bench-json", "", "write a serial-vs-parallel benchmark report to this path and exit")
		verbose     = fs.Bool("v", false, "log per-run progress")
	)
	if err := fs.Parse(args); err != nil {
		return cli{}, err
	}
	if err := checkGraySpec(*grayFaults); err != nil {
		fmt.Fprintf(fs.Output(), "%v\n", err)
		fs.Usage()
		return cli{}, err
	}

	opt := experiments.Default()
	if *cycles > 0 {
		opt.Cfg.MaxCycles = *cycles
	}
	if *epoch > 0 {
		opt.Cfg.EpochCycles = *epoch
	}
	if *mixes > 0 {
		opt.Mixes = *mixes
	}
	if *scale > 0 {
		opt.FootprintScale = *scale
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	opt.Parallel = *parallelN
	opt.FaultSpec = *faults
	opt.FaultSeed = *faultSeed
	opt.ArrivalRate = *arrRate
	opt.PowerCap = *powerCap
	opt.DVFS = *dvfs
	opt.QoSMix = *qosMix
	opt.ServeSeed = *serveSeed
	opt.GPUFaults = *gpuFaults
	opt.CheckpointEvery = *ckptEvery
	opt.Brownout = *brownout
	opt.GrayFaults = *grayFaults
	opt.ProbeEpochs = *probeEpochs
	opt.NoFastForward = !*fastForward
	switch {
	case *watchdog > 0:
		opt.Cfg.WatchdogCycles = *watchdog
	case *watchdog < 0:
		opt.Cfg.WatchdogCycles = 0
	}
	if *digestEvery > 0 {
		opt.Cfg.DigestEvery = *digestEvery
	}
	// -trace-out implies -trace; -trace alone writes trace.jsonl.
	tracePath := *traceOut
	if tracePath == "" && *traceOn {
		tracePath = "trace.jsonl"
	}
	if tracePath != "" {
		opt.Trace = true
		opt.TraceFilter = *traceFilter
	}
	return cli{opt: opt, figs: *fig, bisect: *bisect, pprofPrefix: *pprofPrefix,
		benchJSON: *benchJSON, tracePath: tracePath, verbose: *verbose}, nil
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	opt := c.opt

	if c.bisect != "" {
		a, b, err := experiments.ParseBisectSpec(c.bisect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		res, err := opt.Bisect(a, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisect: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res)
		if !res.Agree {
			os.Exit(1)
		}
		return
	}

	// Tracing: the sweeps stream JSONL into an in-memory buffer (runs are
	// laptop-scale) which finish() writes to disk, converting to Chrome
	// trace_event format when the path ends in .json.
	var traceBuf bytes.Buffer
	if opt.Trace {
		opt.TraceOut = &traceBuf
	}

	// Profiling: CPU from here to finish(); heap snapshot at finish().
	if c.pprofPrefix != "" {
		cf, err := os.Create(c.pprofPrefix + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			os.Exit(1)
		}
	}

	// finish writes the deferred artifacts (trace file, profiles) before a
	// normal exit; error exits skip them.
	finish := func() {
		if c.pprofPrefix != "" {
			pprof.StopCPUProfile()
			mf, err := os.Create(c.pprofPrefix + ".mem.pprof")
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(mf)
				if cerr := mf.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
				os.Exit(1)
			}
		}
		if !opt.Trace {
			return
		}
		f, err := os.Create(c.tracePath)
		if err == nil {
			if strings.HasSuffix(c.tracePath, ".json") {
				err = trace.JSONLToChrome(f, &traceBuf)
			} else {
				_, err = f.Write(traceBuf.Bytes())
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", c.tracePath)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(c.figs, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}

	if c.benchJSON != "" {
		// Benchmark mode defaults to the Figure 10 and 14 sweeps (the golden
		// determinism pair) unless -fig picks a specific set.
		ids := []string{"10", "14"}
		if !want["all"] {
			ids = ids[:0]
			for _, g := range gensFor(opt) {
				if want[g.id] {
					ids = append(ids, g.id)
				}
			}
		}
		if err := runBench(opt, ids, opt.Parallel, c.benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		finish()
		return
	}

	ran := 0
	for _, g := range gensFor(opt) {
		if !want["all"] && !want[g.id] {
			continue
		}
		start := time.Now()
		f, err := g.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", g.id, err)
			os.Exit(1)
		}
		f.Format(os.Stdout)
		if c.verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", g.id, time.Since(start).Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure id %q (valid: %s, or all)\n",
			c.figs, strings.Join(figureIDs(), ", "))
		os.Exit(2)
	}
	finish()
}
