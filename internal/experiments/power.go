package experiments

// PowerSweep is the power-management experiment (ISSUE 8, not a paper
// figure): a 2-GPU cluster serves the mixed LC/BE stream of the serve sweep
// under four power regimes sharing one arrival schedule — a no-DVFS
// baseline (single nominal operating point, so the energy meter runs but
// the governor has nothing to choose), the per-GPU DVFS governor uncapped,
// and two cluster power-cap points derived from the baseline's measured
// mean power. The shape to demonstrate: the governor converts the
// full-price stalled-active cycles of memory-bound best-effort slices into
// cheap gated cycles (>= 10% system energy at <= 3% throughput loss, LC SLO
// attainment unchanged), and the cap controller trades further energy for
// throughput along a Pareto frontier while shaving best-effort slices
// before latency-critical ones.

import (
	"fmt"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/metrics"
	"ugpu/internal/power"
	"ugpu/internal/workload"
)

// powerGPUs is the figure's cluster size: two backends are enough to
// exercise the cluster budget arbitration without failover-scale runtimes.
const powerGPUs = 2

// powerArm labels one regime of the sweep.
type powerArm struct {
	name    string
	dvfs    bool
	capFrac float64 // cluster cap as a fraction of baseline mean power
	capW    float64 // absolute cluster cap override (-power-cap)
}

func (o Options) powerArms() []powerArm {
	arms := []powerArm{{name: "baseline"}}
	if !o.DVFS {
		return arms
	}
	arms = append(arms, powerArm{name: "dvfs", dvfs: true})
	if o.PowerCap > 0 {
		arms = append(arms, powerArm{name: "cap", dvfs: true, capW: o.PowerCap})
		return arms
	}
	arms = append(arms,
		powerArm{name: "cap-85", dvfs: true, capFrac: 0.85},
		powerArm{name: "cap-70", dvfs: true, capFrac: 0.70},
	)
	return arms
}

// nominalOnlyPower is the baseline arm's power config: one operating point
// per domain kind, so energy is metered identically to the DVFS arms while
// every governor step is a no-op.
func nominalOnlyPower() *power.Config {
	return &power.Config{
		SMStates:  power.DefaultSMStates()[:1],
		HBMStates: power.DefaultHBMStates()[:1],
	}
}

// PowerSweep regenerates the energy/throughput Pareto comparison. Arms run
// serially — the cap arms' budgets derive from the baseline arm's measured
// power — while each arm's per-GPU stepping fans out over -parallel
// workers; output and merged traces are byte-identical at any worker count.
func (o Options) PowerSweep() (Figure, error) {
	benches, err := serveBenchPool()
	if err != nil {
		return Figure{}, err
	}
	seed := o.ServeSeed
	if seed == 0 {
		seed = 1
	}
	qos := o.QoSMix
	if qos == 0 {
		qos = 0.5
	}
	// Fine epochs, as in the serve sweep: the governor and the cap
	// arbiter only act at boundaries, so coarse epochs would quantise the
	// feedback loops into a handful of steps.
	cfg := o.Cfg
	if cfg.EpochCycles > 5_000 {
		cfg.EpochCycles = 5_000
	}
	alone := metrics.NewAloneIPC(cfg, o.gpuOptions())
	// Lighter stream than the failover figure: the point is steady-state
	// serving with real SLO attainment, not overload — saturated queues
	// would zero every arm's goodput and make the LC-unchanged comparison
	// vacuous.
	gap := cfg.MaxCycles / 32
	if gap < 1_000 {
		gap = 1_000
	}
	arrivals := workload.ArrivalSpec{
		Horizon:    cfg.MaxCycles * 3 / 4,
		MeanGap:    gap,
		LCFraction: qos,
		MinLen:     4_000,
		MaxLen:     10_000,
		Benchmarks: benches,
	}

	arms := o.powerArms()
	results := make([]clusterArm, len(arms))
	basePower := 0.0
	for ai, arm := range arms {
		opt := o.gpuOptions()
		if arm.dvfs {
			opt.Power = &power.Config{}
		} else {
			opt.Power = nominalOnlyPower()
		}
		capW := arm.capW
		if arm.capFrac > 0 {
			capW = arm.capFrac * basePower
		}
		ccfg := clusterserve.Config{
			GPUs:     powerGPUs,
			Sim:      cfg,
			Opt:      opt,
			Arrivals: arrivals,
			Seed:     seed,
			QueueCap: 4,
			PowerCap: capW,
			Parallel: o.Parallel,
			Alone:    alone,
		}
		if err := o.attachTracers(&ccfg); err != nil {
			return Figure{}, err
		}
		fr, err := clusterserve.New(ccfg)
		if err != nil {
			return Figure{}, fmt.Errorf("power %s: %w", arm.name, err)
		}
		rep, err := fr.Run()
		if err != nil {
			return Figure{}, fmt.Errorf("power %s: %w", arm.name, err)
		}
		if o.Trace && o.TraceOut != nil {
			if err := fr.WriteTrace(o.TraceOut, ai*(powerGPUs+1)); err != nil {
				return Figure{}, err
			}
		}
		if arm.name == "baseline" {
			basePower = rep.MeanPower
		}
		results[ai] = clusterArm{
			rep:  rep,
			capW: capW,
			line: fmt.Sprintf("  power %-10s energy=%.0f meanW=%.1f ipc=%.3f lcGoodput=%.3f p99=%.2f transitions=%d cap=%.0fW\n",
				arm.name, rep.Energy.Total, rep.MeanPower,
				float64(rep.Served)/float64(rep.Cycles),
				rep.SLO.LCGoodput, rep.SLO.P99, rep.Energy.Transitions, capW),
		}
	}
	for _, r := range results {
		o.logf("%s", r.line)
	}

	labels := make([]string, len(arms))
	for i, a := range arms {
		labels[i] = a.name
	}
	base := results[0].rep
	rel := func(get func(*clusterserve.Report) float64) []float64 {
		out := make([]float64, len(results))
		b := get(base)
		for i, r := range results {
			if b > 0 {
				out[i] = (b - get(r.rep)) / b * 100
			}
		}
		return out
	}
	ipc := func(r *clusterserve.Report) float64 {
		if r.Cycles == 0 {
			return 0
		}
		return float64(r.Served) / float64(r.Cycles)
	}
	caps := make([]float64, len(results))
	for i, r := range results {
		caps[i] = r.capW
	}
	capNote := "baseline runs a single nominal operating point (governor no-op); cap arms budget 85%/70% of baseline measured power"
	if o.PowerCap > 0 {
		capNote = fmt.Sprintf("baseline runs a single nominal operating point (governor no-op); cap arm budgets %.0f W (-power-cap)", o.PowerCap)
	}
	fig := Figure{
		ID:    "power",
		Title: "Power management: energy/throughput Pareto under DVFS and power capping",
		Series: []Series{
			{Name: "energy (units)", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.Energy.Total })},
			{Name: "energy saved %", Labels: labels, Values: rel(func(r *clusterserve.Report) float64 { return r.Energy.Total })},
			{Name: "mean power (W)", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.MeanPower })},
			{Name: "IPC", Labels: labels, Values: pickArms(results, ipc)},
			{Name: "IPC loss %", Labels: labels, Values: rel(ipc)},
			{Name: "lcGoodput", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.LCGoodput })},
			{Name: "p99 slowdown", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.P99 })},
			{Name: "transitions", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return float64(r.Energy.Transitions) })},
			{Name: "cap (W)", Labels: labels, Values: caps},
		},
		Notes: []string{
			fmt.Sprintf("%d GPUs; all arms share one LC/BE arrival schedule (seed %d); energy metered identically in every arm", powerGPUs, seed),
			capNote,
			"the governor downclocks memory-bound slices' SMs and compute-bound slices' channels; LC slices keep nominal frequency",
			"the cluster arbiter splits the cap across alive GPUs and re-grants measured headroom; per-GPU caps emit KPower events",
		},
	}
	if cfg.DigestEvery > 0 {
		fig.Notes = append(fig.Notes, clusterDigestNote(results, cfg.DigestEvery))
	}
	return fig, nil
}
