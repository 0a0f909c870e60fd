package experiments

// FailoverSweep is the cluster-failover experiment (ISSUE 7, not a paper
// figure): a 4-GPU cluster serves the Poisson stream of the serve sweep
// while a seeded schedule crashes whole GPUs mid-run. Three arms share one
// arrival schedule and one crash schedule: a no-crash baseline, the crash
// with plain re-dispatch, and the crash with the tiered brownout controller
// shedding load during recovery. The shape to demonstrate: crashes cost
// availability and lost work in every arm, but brownout preserves at least
// the no-brownout arm's latency-critical goodput by spending best-effort
// admissions (and, under deep overload, a relaxed LC target) instead of
// letting every queue back up.

import (
	"fmt"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/fault"
	"ugpu/internal/metrics"
	"ugpu/internal/workload"
)

// failoverGPUs is the figure's cluster size.
const failoverGPUs = 4

// failoverArm labels one configuration of the sweep.
type failoverArm struct {
	name     string
	crashes  int
	brownout bool
}

func (o Options) failoverArms() []failoverArm {
	crashes := o.GPUFaults
	if crashes <= 0 {
		crashes = 1
	}
	arms := []failoverArm{
		{name: "baseline", crashes: 0},
		{name: "crash", crashes: crashes},
	}
	if o.Brownout {
		arms = append(arms, failoverArm{name: "crash+brownout", crashes: crashes, brownout: true})
	}
	return arms
}

// FailoverSweep regenerates the cluster failover comparison. Arms run
// serially (each arm's per-GPU stepping fans out over -parallel workers);
// all frontend decisions are serial, so output and merged traces are
// byte-identical at any worker count.
func (o Options) FailoverSweep() (Figure, error) {
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
	// Same quantum/horizon shaping as the serve sweep: fine epochs so
	// admission and checkpoints are not quantised into job-sized steps, a
	// doubled horizon so the post-crash tail is observable.
	cfg := o.Cfg
	if cfg.EpochCycles > 5_000 {
		cfg.EpochCycles = 5_000
	}
	cfg.MaxCycles *= 2
	horizon := cfg.MaxCycles * 3 / 4 // crashes centre at 50-65%; keep arrivals flowing through recovery
	opt := o.gpuOptions()
	if o.FaultSpec != "" {
		// Intra-GPU faults compose with whole-GPU crashes; clusterserve
		// offsets the injector seed per backend so each GPU degrades
		// independently.
		spec, err := fault.ParseSpec(o.FaultSpec)
		if err != nil {
			return Figure{}, err
		}
		opt.Faults = spec
		opt.FaultSeed = o.FaultSeed
	}
	alone := metrics.NewAloneIPC(cfg, o.gpuOptions())
	// Dense enough that losing one of four GPUs overloads the survivors
	// while the full cluster still keeps up; the floor keeps reduced
	// CI-scale runs at the serve sweep's stream.
	gap := cfg.MaxCycles / 160
	if gap < 1_000 {
		gap = 1_000
	}
	arrivals := workload.ArrivalSpec{
		Horizon:    horizon,
		MeanGap:    gap,
		LCFraction: qos,
		MinLen:     4_000,
		MaxLen:     10_000,
		Benchmarks: benches,
	}

	arms := o.failoverArms()
	results := make([]clusterArm, len(arms))
	for ai, arm := range arms {
		ccfg := clusterserve.Config{
			GPUs:     failoverGPUs,
			Sim:      cfg,
			Opt:      opt,
			Arrivals: arrivals,
			Seed:     seed,
			// Shallow backend queues: work committed to a backend queue
			// cannot be re-balanced, so cluster-level queueing lives at the
			// frontend — which is also where the brownout controller
			// measures delay.
			QueueCap:        2,
			Crashes:         arm.crashes,
			CrashSeed:       seed,
			CheckpointEvery: o.CheckpointEvery,
			Brownout:        arm.brownout,
			Parallel:        o.Parallel,
			Alone:           alone,
		}
		if err := o.attachTracers(&ccfg); err != nil {
			return Figure{}, err
		}
		fr, err := clusterserve.New(ccfg)
		if err != nil {
			return Figure{}, fmt.Errorf("failover %s: %w", arm.name, err)
		}
		rep, err := fr.Run()
		if err != nil {
			return Figure{}, fmt.Errorf("failover %s: %w", arm.name, err)
		}
		if o.Trace && o.TraceOut != nil {
			if err := fr.WriteTrace(o.TraceOut, ai*(failoverGPUs+1)); err != nil {
				return Figure{}, err
			}
		}
		results[ai] = clusterArm{
			rep: rep,
			line: fmt.Sprintf("  failover %-15s arrived=%d done=%d shed=%d rej=%d crashes=%d avail=%.3f mttr=%.0f lost=%.0f lcGoodput=%.3f p99=%.2f tier=%d\n",
				arm.name, rep.Arrived, rep.Completed, rep.Shed, rep.Rejected,
				rep.SLO.Crashes, rep.SLO.Availability, rep.SLO.MTTRCycles,
				rep.SLO.LostWork, rep.SLO.LCGoodput, rep.SLO.P99, rep.MaxTier),
		}
	}
	for _, r := range results {
		o.logf("%s", r.line)
	}

	labels := make([]string, len(arms))
	for i, a := range arms {
		labels[i] = a.name
	}
	fig := Figure{
		ID:    "failover",
		Title: "Cluster failover: goodput, availability, MTTR under whole-GPU crashes",
		Series: []Series{
			{Name: "goodput", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.Goodput })},
			{Name: "lcGoodput", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.LCGoodput })},
			{Name: "p99 slowdown", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.P99 })},
			{Name: "availability", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.Availability })},
			{Name: "MTTR cycles", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.MTTRCycles })},
			{Name: "lost work", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return r.SLO.LostWork })},
			{Name: "shed jobs", Labels: labels, Values: pickArms(results, func(r *clusterserve.Report) float64 { return float64(r.SLO.Shed) })},
		},
		Notes: []string{
			fmt.Sprintf("%d GPUs; crash schedule seeded by the arrival seed (%d); checkpoint/restore from periodic in-memory snapshots", failoverGPUs, seed),
			"all arms share one arrival schedule and one crash schedule; identical seeds give byte-identical merged traces at any -parallel",
			"availability = healthy GPU-cycles / total; MTTR = crash to last re-dispatch; lost work = alone-cycles rolled back to checkpoints",
			"brownout sheds BE admissions (tier 1), relaxes the LC target 2x (tier 2), circuit-breaks arrivals (tier 3) until queue delay recovers",
		},
	}
	if o.FaultSpec != "" {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("backends also run intra-GPU faults %q (seed %d)", o.FaultSpec, o.FaultSeed))
	}
	if cfg.DigestEvery > 0 {
		fig.Notes = append(fig.Notes, clusterDigestNote(results, cfg.DigestEvery))
	}
	return fig, nil
}
