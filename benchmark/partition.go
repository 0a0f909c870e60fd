package main

import (
	"fmt"
	"time"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/workload"
)

// partition-busy: the paper's mechanism on a busy machine. The dynamic UGPU
// policy partitions 80 SMs and the HBM channel groups between LBM
// (memory-bound) and DXTC (compute-bound); every cycle is busy, so host time
// goes to the cycle loop, and reallocations drive PageMove migrations and SM
// drains.
const (
	pbEpoch  = 10_000 // cycles per Runner.Step
	pbSteps  = 100    // Steps per round
	pbScale  = 64     // footprint divisor
	pbWarmup = 5      // Steps before steady-state allocation counting
	// pbAloneCycles is the solo-run length of the alone-IPC references
	// behind lc_goodput and the slowdowns; they are measured once per run,
	// outside every timed section.
	pbAloneCycles = 100_000
)

type partitionBusy struct {
	cfg config.Config
	mix workload.Mix

	r      *core.Runner // built by setup, consumed by the next round
	last   *core.Runner
	first  *core.Result // first round's result (all rounds share one input)
	epochs []epochInstr // first round's per-epoch retirement
}

// epochInstr is one epoch's length and per-app retired instructions.
type epochInstr struct {
	cycles uint64
	instr  []uint64
}

func newPartitionBusy(seed int64) (*partitionBusy, error) {
	cfg := config.Default()
	cfg.Seed = seed
	cfg.EpochCycles = pbEpoch
	cfg.MaxCycles = pbEpoch * pbSteps
	mix, err := pbMix()
	if err != nil {
		return nil, err
	}
	return &partitionBusy{cfg: cfg, mix: mix}, nil
}

func pbMix() (workload.Mix, error) {
	var apps []workload.Benchmark
	for _, abbr := range []string{"LBM", "DXTC"} {
		b, err := workload.ByAbbr(abbr)
		if err != nil {
			return workload.Mix{}, err
		}
		apps = append(apps, b)
	}
	return workload.Mix{Name: "LBM_DXTC", Apps: apps, Hetero: true}, nil
}

func (p *partitionBusy) policy() core.Policy {
	return core.WithOptions(core.NewUGPU(p.cfg), func(o *gpu.Options) { o.FootprintScale = pbScale })
}

func (p *partitionBusy) subInputs() int { return 1 }

func (p *partitionBusy) setup(sp *spans) (time.Duration, error) {
	t0 := time.Now()
	r, err := core.NewRunner(p.cfg, p.policy(), p.mix)
	if err != nil {
		return 0, err
	}
	p.r = r
	return time.Since(t0), nil
}

func (p *partitionBusy) round(_ int, sp *spans) roundOut {
	var o roundOut
	if p.r == nil {
		if _, err := p.setup(nil); err != nil {
			o.ops, o.failed, o.problem = 1, 1, err.Error()
			return o
		}
	}
	r := p.r
	p.r, p.last = nil, r
	var allocs0 uint64
	var cycles0 uint64
	record := p.first == nil
	prev := make([]uint64, len(p.mix.Apps))
	start := r.G.Cycle()
	for {
		if sp != nil && o.ops == pbWarmup {
			allocs0, cycles0 = mallocs(), r.G.Cycle()
		}
		t0 := time.Now()
		done, err := r.Step()
		d := time.Since(t0)
		o.host += d
		o.stepMs = append(o.stepMs, float64(d.Nanoseconds())/1e6)
		o.ops++
		if err != nil {
			o.failed++
			o.problem = fmt.Sprintf("step %d: %v", o.ops, err)
			break
		}
		if record {
			p.recordEpoch(r, prev, start)
			start = r.G.Cycle()
		}
		if done {
			break
		}
	}
	if sp != nil && o.ops > pbWarmup {
		o.steadyAllocs, o.steadyCycles = mallocs()-allocs0, r.G.Cycle()-cycles0
	}
	o.simCycles = r.G.Cycle()
	res, err := r.Run() // folds the summary; every epoch has already run
	if err != nil && o.problem == "" {
		o.problem = err.Error()
	}
	for _, a := range res.Apps {
		if a.Instructions == 0 && o.problem == "" {
			o.problem = fmt.Sprintf("%s retired no instructions", a.Abbr)
		}
	}
	o.fingerprint = uint64(r.G.StateDigest())
	if p.first == nil {
		p.first = &res
	}
	return o
}

// modelled reports the total IPC and, against alone-IPC references, the
// closed-world analogues of the serving outcomes over every (epoch, app) of
// the first round: the app's slowdown that epoch (alone IPC over its IPC),
// and lc_goodput, the per-epoch mean of the normalized progress (Eq. 3)
// summed over the apps within the LC slowdown target.
func (p *partitionBusy) modelled() modelled {
	res := p.first
	m := modelled{simIPC: res.TotalIPC()}
	acfg := p.cfg
	acfg.MaxCycles = pbAloneCycles
	alone := metrics.NewAloneIPC(acfg, p.policy().Options())
	refs := make([]float64, len(p.mix.Apps))
	for i, b := range p.mix.Apps {
		v, err := alone.Get(b)
		if err != nil || v <= 0 {
			return m
		}
		refs[i] = v
		fmt.Printf("app %s ipc %.4g alone_ipc %.4g\n", b.Abbr, res.Apps[i].IPC, v)
	}
	slo := metrics.DefaultSLO()
	for _, e := range p.epochs {
		for i, instr := range e.instr {
			ipc := float64(instr) / float64(e.cycles)
			if ipc <= 0 {
				continue
			}
			sd := refs[i] / ipc
			m.slowdowns = append(m.slowdowns, sd)
			if sd <= slo.LCSlowdown {
				m.lcGoodput += ipc / refs[i] / float64(len(p.epochs))
			}
		}
	}
	return m
}

// recordEpoch appends the epoch stepped since cycle start; prev holds the
// cumulative retirement at start and is advanced.
func (p *partitionBusy) recordEpoch(r *core.Runner, prev []uint64, start uint64) {
	e := epochInstr{cycles: r.G.Cycle() - start, instr: make([]uint64, len(prev))}
	for i, a := range r.G.Apps() {
		e.instr[i] = a.TotalInstr - prev[i]
		prev[i] = a.TotalInstr
	}
	p.epochs = append(p.epochs, e)
}

func (p *partitionBusy) counts(rep *report) {
	gpuCounts(rep, p.last.G)
	res := p.first
	rep.set("core.reallocations", "count", float64(res.Reallocations), 1)
	rep.set("core.mig_frac_mean", "ratio", res.MigFracMean, res.Epochs)
	absent(rep, "serve.attaches", "serve.preemptions", "serve.reject_rate",
		"clusterserve.shed", "clusterserve.availability", "clusterserve.quarantines")
}

// gpuCounts reads one GPU's layer counters through its public getters.
func gpuCounts(rep *report, g *gpu.GPU) {
	var active, stall, slots uint64
	for i := 0; i < g.Config().NumSMs; i++ {
		s := g.SM(i).Stats()
		active += s.ActiveCycles
		stall += s.StallCycles
		slots += s.IssueSlots
	}
	rep.set("sm.stall_frac", "ratio", ratio(stall, active), 1)
	rep.set("sm.issue_per_active_cycle", "1/cycle", ratio(slots, active), 1)
	t := g.Totals()
	rep.set("cache.l1_hit_rate", "ratio", ratio(t.L1Hits, t.Loads), 1)
	rep.set("tlb.l1_hit_rate", "ratio", ratio(t.TLBL1Hits, t.Loads), 1)
	l2, walks, _ := g.DebugTranslation()
	rep.set("tlb.l2_hit_rate", "ratio", ratio(l2.Hits, l2.Accesses), 1)
	rep.set("tlb.walks", "count", float64(walks), 1)
	h := g.HBM().TotalStats()
	rep.set("dram.row_hit_rate", "ratio", ratio(h.RowHits, h.RowHits+h.RowMisses), 1)
	rep.set("dram.bus_util", "ratio", ratio(h.BusyCycles, g.Cycle()*uint64(g.Config().NumChannels())), 1)
	rep.set("dram.queue_full", "count", float64(h.QueueFull), 1)
	rep.set("dram.migrations", "count", float64(h.Migrations), 1)
	rep.set("vm.page_migrations", "count", float64(g.VM().Stats().Migrations), 1)
	rep.set("gpu.ff_skipped_frac", "ratio", ratio(g.FastForwardStats().SkippedCycles, g.Cycle()), 1)
}

// gpuCounters are the names gpuCounts reports.
var gpuCounters = []string{"sm.stall_frac", "sm.issue_per_active_cycle", "cache.l1_hit_rate",
	"tlb.l1_hit_rate", "tlb.l2_hit_rate", "tlb.walks", "dram.row_hit_rate", "dram.bus_util",
	"dram.queue_full", "dram.migrations", "vm.page_migrations", "gpu.ff_skipped_frac"}

// absent reports the counters of layers a workload does not run, or whose
// state its API does not expose, as 0 with no samples.
func absent(rep *report, names ...string) {
	for _, n := range names {
		unit := "ratio"
		switch n {
		case "tlb.walks", "dram.queue_full", "dram.migrations", "vm.page_migrations", "core.reallocations",
			"serve.attaches", "serve.preemptions", "clusterserve.shed", "clusterserve.quarantines":
			unit = "count"
		case "sm.issue_per_active_cycle":
			unit = "1/cycle"
		}
		rep.set(n, unit, 0, 0)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
