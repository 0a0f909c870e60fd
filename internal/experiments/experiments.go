// Package experiments regenerates every table and figure of the UGPU
// paper's evaluation (Section 6) on the simulated GPU. Each generator
// returns a Figure with named series; cmd/experiments prints them and
// EXPERIMENTS.md records paper-vs-measured comparisons.
//
// Run lengths and sweep sizes are scaled (DESIGN.md): results reproduce the
// paper's shapes — who wins, by roughly what factor, where crossovers fall —
// not absolute numbers.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/parallel"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	Cfg            config.Config
	Mixes          int       // mixes per sweep (0 = suite default)
	FootprintScale int       // divides Table 2 footprints
	Log            io.Writer // optional progress log

	// Parallel bounds the worker pool for sweep fan-out: every figure is a
	// set of independent simulations executed through internal/parallel.
	// 0 sizes the pool to GOMAXPROCS; 1 forces serial execution. Results
	// are byte-identical for any value (see the parallel package's
	// determinism contract); progress logs are buffered per task and
	// flushed in sweep order.
	Parallel int

	// FaultSpec, when non-empty, replaces the FaultSweep figure's default
	// arms with a single custom arm (fault.ParseSpec format, e.g.
	// "sm=2,group=1,mig=0.05").
	FaultSpec string
	// FaultSeed seeds the fault injector (0 = the config seed).
	FaultSeed int64

	// ServeSeed seeds the serve sweep's arrival schedules (0 = seed 1).
	ServeSeed int64

	// GPUFaults is the number of whole-GPU crashes the failover figure
	// injects (0 = the default 1; clamped to GPUs-1 so a survivor remains).
	GPUFaults int
	// CheckpointEvery is the failover figure's checkpoint interval in
	// cycles (0 = 2 epochs).
	CheckpointEvery int
	// Brownout enables the failover figure's brownout arm (the tiered
	// overload controller); cmd/experiments defaults it on.
	Brownout bool
	// GrayFaults, when non-empty, replaces the gray figure's default
	// degradation spec (fault.ParseGraySpec format, e.g.
	// "gpus=1,sm=3,noc=0.005,window=0.25").
	GrayFaults string
	// ProbeEpochs is the consecutive clean probe epochs a quarantined GPU
	// must score before re-admitting LC work (0 = the health default 4).
	ProbeEpochs int
	// ArrivalRate, when > 0, replaces the serve sweep's default rising
	// rates with a single rate (jobs per 100K cycles).
	ArrivalRate float64
	// PowerCap, when > 0, replaces the power figure's derived cap points
	// with a single cluster budget in watts.
	PowerCap float64
	// DVFS includes the power figure's governed arms (cmd/experiments
	// defaults it on; off leaves only the nominal baseline).
	DVFS bool
	// QoSMix is the serve sweep's latency-critical arrival fraction
	// (0 = the 0.5 default).
	QoSMix float64

	// Trace attaches a per-cell deterministic event tracer to every sweep
	// simulation (ServeSweep, FaultSweep) and streams the recorded events as
	// JSONL to TraceOut. Each cell gets its own tracer (one tracer == one
	// simulation goroutine, the same ownership rule internal/parallel
	// imposes on GPUs); cell streams are buffered through a
	// parallel.OrderedSink and concatenated in cell-index order, so the
	// JSONL is byte-identical at any Parallel count. Tracing is
	// observation-only: simulation results are unchanged with it on or off.
	Trace bool
	// TraceFilter selects recorded categories/severity (trace.ParseFilter
	// grammar, e.g. "migration,fault,sev=warn"; empty = everything).
	TraceFilter string
	// TraceOut receives the concatenated JSONL (nil = tracing still runs,
	// output discarded; cmd/experiments points this at -trace-out).
	TraceOut io.Writer
	// NoFastForward disables the event-driven fast-forward engine and runs
	// the plain per-cycle loop (gpu.Options.NoFastForward). Results are
	// byte-identical either way; the switch exists for differential checks
	// (TestModeMatrix) and perf comparison.
	NoFastForward bool
}

// runner returns the sweep fan-out pool.
func (o Options) runner() *parallel.Runner { return parallel.New(o.Parallel) }

// cellTracer builds one sweep cell's private tracer (nil when tracing is
// off, which every emit site treats as disabled).
func (o Options) cellTracer() (*trace.Tracer, error) {
	if !o.Trace {
		return nil, nil
	}
	f, err := trace.ParseFilter(o.TraceFilter)
	if err != nil {
		return nil, err
	}
	return trace.NewFiltered(trace.DefaultCapacity, f), nil
}

// flushTraceTask writes one cell's stream into its sink slot: a {"task":N}
// header naming the cell, then the tracer's events as JSONL. The header is
// what lets a consumer (trace.JSONLToChrome) split the concatenated stream
// back into per-cell tracks.
func flushTraceTask(w io.Writer, task int, tr *trace.Tracer) error {
	if tr == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "{\"task\":%d}\n", task); err != nil {
		return err
	}
	return tr.WriteJSONL(w)
}

// emitTrace drains a sweep's ordered sink to TraceOut.
func (o Options) emitTrace(sink *parallel.OrderedSink) error {
	if !o.Trace || o.TraceOut == nil || sink == nil {
		return nil
	}
	_, err := sink.WriteTo(o.TraceOut)
	return err
}

// Default returns laptop-scale options: 150K-cycle runs with 25K-cycle
// epochs over a subset of mixes.
func Default() Options {
	cfg := config.Default()
	cfg.MaxCycles = 150_000
	cfg.EpochCycles = 25_000
	return Options{Cfg: cfg, Mixes: 6, FootprintScale: 64}
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format, args...)
	}
}

func (o Options) gpuOptions() gpu.Options {
	g := gpu.DefaultOptions()
	g.FootprintScale = o.FootprintScale
	g.NoFastForward = o.NoFastForward
	return g
}

// withScale applies the experiment's footprint scale (and the fast-forward
// switch) to a policy.
func (o Options) withScale(p core.Policy) core.Policy {
	return core.WithOptions(p, func(g *gpu.Options) {
		g.FootprintScale = o.FootprintScale
		g.NoFastForward = o.NoFastForward
	})
}

// Series is one plotted line/bar group.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Figure is one regenerated table or figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// Format renders the figure as an aligned text table.
func (f Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		// Header from the first series' labels.
		fmt.Fprintf(w, "%-22s", "series")
		for _, l := range f.Series[0].Labels {
			fmt.Fprintf(w, " %12s", l)
		}
		fmt.Fprintln(w)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%-22s", s.Name)
			for _, v := range s.Values {
				fmt.Fprintf(w, " %12.3f", v)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sortedByValue sorts a copy of xs ascending (the paper's S-curve x-axis
// ordering: workloads sorted by STP).
func sortedByValue(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// scored runs one policy over mixes and returns per-mix STP and ANTT. The
// policy is produced per mix by mk, because some policies (CD-Search, the
// hill climber) carry state across epochs and must not be shared between
// concurrently simulated mixes. Mixes fan out over the Options' worker pool;
// per-mix log lines are buffered and flushed in mix order so verbose output
// is identical to a serial run.
func (o Options) scored(mk func() core.Policy, mixes []workload.Mix, alone *metrics.AloneIPC) (stp, antt []float64, err error) {
	type mixScore struct {
		stp, antt float64
		line      string
	}
	out, err := parallel.Map(o.runner(), len(mixes), func(i int) (mixScore, error) {
		mix := mixes[i]
		pol := mk()
		res, err := core.RunPolicy(o.Cfg, o.withScale(pol), mix)
		if err != nil {
			return mixScore{}, fmt.Errorf("%s on %s: %w", pol.Name(), mix.Name, err)
		}
		ref, err := alone.Table(mix)
		if err != nil {
			return mixScore{}, err
		}
		s, a := metrics.Score(res, ref)
		line := fmt.Sprintf("  %-14s %-22s STP=%.3f ANTT=%.3f realloc=%d\n",
			pol.Name(), mix.Name, s, a, res.Reallocations)
		return mixScore{stp: s, antt: a, line: line}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, m := range out {
		stp = append(stp, m.stp)
		antt = append(antt, m.antt)
		o.logf("%s", m.line)
	}
	return stp, antt, nil
}

// aloneRef builds the shared solo-IPC reference runner.
func (o Options) aloneRef() *metrics.AloneIPC {
	return metrics.NewAloneIPC(o.Cfg, o.gpuOptions())
}

// heteroMixes returns the sweep's heterogeneous two-program mixes.
func (o Options) heteroMixes() []workload.Mix {
	n := o.Mixes
	if n <= 0 {
		n = 6
	}
	all := workload.HeterogeneousPairs(50)
	// Spread selections across the 50-mix set rather than taking a prefix,
	// so different memory-/compute-bound pairings are represented.
	if n >= len(all) {
		return all
	}
	out := make([]workload.Mix, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*len(all)/n])
	}
	return out
}
