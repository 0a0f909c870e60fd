package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/config"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/power"
	"ugpu/internal/serve"
	"ugpu/internal/workload"
)

// The serving workloads share one job shape: a 50/50 LC/BE Poisson stream
// of 4K-10K alone-cycle jobs drawn from a three-benchmark pool (compute-bound
// DXTC, memory-bound LBM, and BH, compute-bound but LLC-heavy), arriving in
// the first part of the horizon so every job can finish before it ends.
// Alone-IPC references are measured over a short solo run to keep set-up
// cheap; they are part of set-up.
const (
	svEpoch       = 5_000
	svScale       = 64
	svAloneCycles = 30_000
	svMinLen      = 4_000
	svMaxLen      = 10_000
)

var svPool = []string{"DXTC", "LBM", "BH"}

// servingShape sizes one serving workload.
type servingShape struct {
	subs     int // sub-inputs (independent arrival schedules)
	jobs     int // jobs per sub-input
	meanGap  int // mean inter-arrival gap, cycles
	deadTime int // minimum inter-arrival gap, cycles (part of meanGap)
	arrivals int // latest arrival cycle
	drain    int // cycles after the latest arrival
}

// servingBase holds what both serving workloads generate from the seed.
type servingBase struct {
	shape servingShape
	sim   config.Config
	opt   gpu.Options
	pool  []workload.Benchmark
	seeds []int64
	jobs  [][]workload.Job
	alone *metrics.AloneIPC
	first []*outcome // first execution of each sub-input
}

func newServingBase(seed int64, shape servingShape, opt gpu.Options) (*servingBase, error) {
	sim := config.Default()
	sim.Seed = seed
	sim.EpochCycles = svEpoch
	sim.MaxCycles = shape.arrivals + shape.drain
	sim.DigestEvery = 1
	opt.FootprintScale = svScale
	b := &servingBase{shape: shape, sim: sim, opt: opt, first: make([]*outcome, shape.subs)}
	for _, abbr := range svPool {
		bm, err := workload.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		b.pool = append(b.pool, bm)
	}
	for k := 0; k < shape.subs; k++ {
		s := subSeed(seed, k)
		b.seeds = append(b.seeds, s)
		b.jobs = append(b.jobs, schedule(rand.New(rand.NewSource(s)), shape, b.pool))
	}
	return b, nil
}

// schedule generates one sub-input's jobs: Poisson arrivals after a dead
// time (compressed into the arrival horizon when they overrun it), exactly
// half of them LC, every pool benchmark equally often, and lengths
// stratified over [svMinLen, svMaxLen], all shuffled by the seed. Fixing the class, benchmark and length
// composition keeps the modelled outcomes comparable across seeds; the seed
// still decides the order and the arrival times.
func schedule(rng *rand.Rand, shape servingShape, pool []workload.Benchmark) []workload.Job {
	n := shape.jobs
	entries := make([]workload.TraceEntry, n)
	at := 0.0
	for i := range entries {
		e := &entries[i]
		if i%2 == 1 {
			e.Class = workload.BestEffort
		}
		e.Bench = pool[i%len(pool)]
		e.AloneCycles = svMinLen + int(float64(svMaxLen-svMinLen)*(float64(i)+rng.Float64())/float64(n))
		at += float64(shape.deadTime) + 1 + rng.ExpFloat64()*float64(shape.meanGap-shape.deadTime)
		e.Arrival = int(at)
	}
	if last := entries[n-1].Arrival; last > shape.arrivals {
		for i := range entries {
			entries[i].Arrival = int(float64(entries[i].Arrival) * float64(shape.arrivals) / float64(last))
		}
	}
	// Shuffle the composition over the arrival slots.
	rng.Shuffle(n, func(i, j int) {
		entries[i].Class, entries[j].Class = entries[j].Class, entries[i].Class
	})
	rng.Shuffle(n, func(i, j int) {
		entries[i].Bench, entries[j].Bench = entries[j].Bench, entries[i].Bench
	})
	rng.Shuffle(n, func(i, j int) {
		entries[i].AloneCycles, entries[j].AloneCycles = entries[j].AloneCycles, entries[i].AloneCycles
	})
	return workload.Trace(entries)
}

// measureAlone builds fresh alone-IPC references for the pool.
func (b *servingBase) measureAlone(sp *spans) error {
	acfg := b.sim
	acfg.MaxCycles = svAloneCycles
	acfg.DigestEvery = 0
	b.alone = metrics.NewAloneIPC(acfg, b.opt)
	for _, bm := range b.pool {
		err := sp.time("metrics.alone_s", func() error {
			_, err := b.alone.Get(bm)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *servingBase) subInputs() int { return b.shape.subs }

// record keeps the first execution of sub-input k for the modelled metrics.
func (b *servingBase) record(k int, o outcome) {
	if b.first[k] == nil {
		b.first[k] = &o
	}
}

// modelled folds the first report of every sub-input: instructions served
// per GPU-cycle, and LC goodput and slowdowns over the pooled outcomes.
func (b *servingBase) modelled() modelled {
	var served, cycles float64
	var all []metrics.JobOutcome
	for _, r := range b.first {
		if r == nil { // the sub-input failed; the run is already incorrect
			continue
		}
		served += float64(r.served)
		cycles += float64(r.gpuCycles)
		all = append(all, r.outcomes...)
	}
	m := modelled{simIPC: served / cycles}
	m.lcGoodput = metrics.BuildSLOReport(all, metrics.DefaultSLO(), b.sim.MaxCycles*len(b.first)).LCGoodput
	for _, j := range all {
		if j.Completed() {
			m.slowdowns = append(m.slowdowns, metrics.Slowdown(j.Arrival, j.Finish, j.AloneCycles))
		}
	}
	return m
}

// outcome is the part of a serving report the metrics fold.
type outcome struct {
	served    uint64
	gpuCycles uint64
	outcomes  []metrics.JobOutcome

	attaches     int     // serve-sparse
	availability float64 // cluster-gray
	quarantines  int     // cluster-gray
}

// serveCounts adds the serving counters over the first execution of every
// sub-input.
func (b *servingBase) serveCounts(rep *report) {
	var all []metrics.JobOutcome
	attaches := 0
	for _, o := range b.first {
		if o == nil {
			continue
		}
		all = append(all, o.outcomes...)
		attaches += o.attaches
	}
	slo := metrics.BuildSLOReport(all, metrics.DefaultSLO(), b.sim.MaxCycles*len(b.first))
	n := len(b.first)
	rep.set("serve.attaches", "count", float64(attaches), n)
	rep.set("serve.preemptions", "count", float64(slo.Preemptions), n)
	rep.set("serve.reject_rate", "ratio", slo.RejectRate, n)
}

// checkArrivals is the serving output check: every job arrived and ended
// completed, rejected or shed.
func checkArrivals(jobs, arrived, completed, rejected, shed int) (failed int, problem string) {
	if arrived != jobs {
		return jobs, fmt.Sprintf("%d of %d jobs arrived", arrived, jobs)
	}
	if open := arrived - completed - rejected - shed; open != 0 {
		return open, fmt.Sprintf("%d arrived, %d completed + %d rejected + %d shed", arrived, completed, rejected, shed)
	}
	return 0, ""
}

// serve-sparse: one GPU serving a low-rate stream through serve.Server.Run.
// The dead time between arrivals exceeds the longest job's service time, so
// every job attaches to a drained GPU and detaches back to empty: host time
// goes to fast-forward, attach/detach, address-space churn and admission as
// well as the jobs' busy cycles, and the slowdown tail measures the service
// path rather than chance coincidences of arrivals.
type serveSparse struct {
	*servingBase
	srv  *serve.Server // built by setup, consumed by the next round of sub-input 0
	last *serve.Server
}

func newServeSparse(seed int64) (*serveSparse, error) {
	b, err := newServingBase(seed, servingShape{subs: 6, jobs: 12, meanGap: 100_000, deadTime: 50_000, arrivals: 1_500_000, drain: 200_000}, gpu.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &serveSparse{servingBase: b}, nil
}

func (s *serveSparse) config(k int) serve.Config {
	return serve.Config{
		Sim:    s.sim,
		Opt:    s.opt,
		Jobs:   s.jobs[k],
		Seed:   s.seeds[k],
		Policy: serve.ClassAware,
		Alone:  s.alone,
	}
}

func (s *serveSparse) setup(sp *spans) (time.Duration, error) {
	t0 := time.Now()
	if err := s.measureAlone(sp); err != nil {
		return 0, err
	}
	srv, err := serve.New(s.config(0))
	if err != nil {
		return 0, err
	}
	s.srv = srv
	return time.Since(t0), nil
}

func (s *serveSparse) round(k int, sp *spans) roundOut {
	o := roundOut{ops: len(s.jobs[k])}
	srv := s.srv
	if k != 0 || srv == nil {
		var err error
		if srv, err = serve.New(s.config(k)); err != nil {
			o.failed, o.problem = o.ops, err.Error()
			return o
		}
	}
	s.srv = nil
	var rep *serve.Report
	allocs0 := uint64(0)
	if sp != nil {
		allocs0 = mallocs()
	}
	t0 := time.Now()
	err := sp.time("serve.run_s", func() error {
		var err error
		rep, err = srv.Run()
		return err
	})
	o.host = time.Since(t0)
	if err != nil {
		o.failed, o.problem = o.ops, err.Error()
		return o
	}
	if sp != nil {
		o.steadyAllocs, o.steadyCycles = mallocs()-allocs0, rep.Cycles
	}
	o.simCycles = rep.Cycles
	o.stepMs = []float64{float64(o.host.Nanoseconds()) / 1e6 / float64(rep.Epochs)}
	o.failed, o.problem = checkArrivals(len(s.jobs[k]), rep.Arrived, rep.SLO.Completed, rep.SLO.Rejected, rep.SLO.Shed)
	o.fingerprint = rep.SLO.StateDigest
	s.record(k, outcome{served: rep.Served, gpuCycles: rep.Cycles, outcomes: rep.Outcomes, attaches: rep.Attaches})
	s.last = srv
	return o
}

func (s *serveSparse) counts(rep *report) {
	if s.last != nil {
		gpuCounts(rep, s.last.GPU())
	} else {
		absent(rep, gpuCounters...)
	}
	s.serveCounts(rep)
	absent(rep, "core.reallocations", "core.mig_frac_mean",
		"clusterserve.shed", "clusterserve.availability", "clusterserve.quarantines")
}

// cluster-gray: a 4-GPU clusterserve.Frontend stepping its backends on
// runtime.NumCPU() workers, under one gray-degraded GPU with the health
// scorer and quarantine, one seeded crash with checkpoint failover, and DVFS
// under a cluster power cap.
const (
	cgGPUs = 4
	// cgPowerCap is the cluster budget in watts. Its 175 W per-GPU share is
	// below a busy GPU's draw (the power model's 300 W TDP), so the arbiter
	// moves headroom between GPUs and the governors throttle; the stream
	// averages about 510 W uncapped.
	cgPowerCap = 700
)

type clusterGray struct {
	*servingBase
	fr       *clusterserve.Frontend // built by setup, consumed by the next round of sub-input 0
	firstRep *clusterserve.Report   // sub-input 0's first report
	par      []float64              // host seconds of sub-input 0's parallel rounds
}

func newClusterGray(seed int64) (*clusterGray, error) {
	opt := gpu.DefaultOptions()
	opt.Power = &power.Config{}
	b, err := newServingBase(seed, servingShape{subs: 6, jobs: 20, meanGap: 8_000, arrivals: 200_000, drain: 100_000}, opt)
	if err != nil {
		return nil, err
	}
	return &clusterGray{servingBase: b}, nil
}

func (c *clusterGray) config(k, parallel int) clusterserve.Config {
	return clusterserve.Config{
		GPUs:     cgGPUs,
		Sim:      c.sim,
		Opt:      c.opt,
		Jobs:     c.jobs[k],
		Seed:     c.seeds[k],
		Policy:   serve.ClassAware,
		QueueCap: 6,
		Crashes:  1,
		Gray:     fault.GraySpec{GPUs: 1, SMStep: 3, HBMStep: 2, NoCDrop: 0.01, Window: 0.35},
		// The gray figure's conservative thresholds: the NACK-burst
		// detector convicts the victim, progress dips alone do not.
		Health:   &clusterserve.HealthConfig{EnterRatio: 0.4, SuspectAfter: 3, GrowStreak: 5},
		PowerCap: cgPowerCap,
		Parallel: parallel,
		Alone:    c.alone,
	}
}

func (c *clusterGray) setup(sp *spans) (time.Duration, error) {
	t0 := time.Now()
	if err := c.measureAlone(sp); err != nil {
		return 0, err
	}
	fr, err := clusterserve.New(c.config(0, runtime.NumCPU()))
	if err != nil {
		return 0, err
	}
	c.fr = fr
	return time.Since(t0), nil
}

// runOnce runs sub-input k with the given worker count on fr, or on a new
// frontend when fr is nil.
func (c *clusterGray) runOnce(k, parallel int, fr *clusterserve.Frontend, sp *spans) (roundOut, *clusterserve.Frontend, *clusterserve.Report) {
	o := roundOut{ops: len(c.jobs[k])}
	if fr == nil {
		var err error
		if fr, err = clusterserve.New(c.config(k, parallel)); err != nil {
			o.failed, o.problem = o.ops, err.Error()
			return o, nil, nil
		}
	}
	var rep *clusterserve.Report
	allocs0 := uint64(0)
	if sp != nil {
		allocs0 = mallocs()
	}
	t0 := time.Now()
	err := sp.time("clusterserve.run_s", func() error {
		var err error
		rep, err = fr.Run()
		return err
	})
	o.host = time.Since(t0)
	if err != nil {
		o.failed, o.problem = o.ops, err.Error()
		return o, nil, nil
	}
	if sp != nil {
		o.steadyAllocs, o.steadyCycles = mallocs()-allocs0, rep.Cycles*uint64(rep.GPUs)
	}
	o.simCycles = rep.Cycles * uint64(rep.GPUs)
	o.stepMs = []float64{float64(o.host.Nanoseconds()) / 1e6 / float64(rep.Epochs)}
	o.failed, o.problem = checkArrivals(len(c.jobs[k]), rep.Arrived, rep.Completed, rep.Rejected, rep.Shed)
	o.fingerprint = rep.SLO.StateDigest
	return o, fr, rep
}

func (c *clusterGray) round(k int, sp *spans) roundOut {
	fr := c.fr
	if k != 0 {
		fr = nil
	}
	c.fr = nil
	o, fr, rep := c.runOnce(k, runtime.NumCPU(), fr, sp)
	if rep == nil {
		return o
	}
	quar := 0
	for _, t := range fr.HealthLog() {
		if t.To == clusterserve.HealthQuarantined {
			quar++
		}
	}
	c.record(k, outcome{served: rep.Served, gpuCycles: o.simCycles, outcomes: rep.Outcomes,
		availability: rep.SLO.Availability, quarantines: quar})
	if k == 0 {
		if c.firstRep == nil {
			c.firstRep = rep
		}
		c.par = append(c.par, o.host.Seconds())
	}
	return o
}

func (c *clusterGray) counts(rep *report) {
	c.serveCounts(rep)
	avail, quar, shed := 0.0, 0, 0
	for _, o := range c.first {
		if o == nil {
			continue
		}
		avail += o.availability
		quar += o.quarantines
		for _, j := range o.outcomes {
			if j.Shed != metrics.ShedNone {
				shed++
			}
		}
	}
	n := len(c.first)
	rep.set("clusterserve.shed", "count", float64(shed), n)
	rep.set("clusterserve.availability", "ratio", avail/float64(n), n)
	rep.set("clusterserve.quarantines", "count", float64(quar), n)
	// The frontend does not expose its backends' devices, and Offer-mode
	// backends do not report attaches.
	absent(rep, gpuCounters...)
	absent(rep, "serve.attaches", "core.reallocations", "core.mig_frac_mean")
}

// serialCheck reruns sub-input 0 with one worker: the report and fingerprint
// must match the parallel rounds', and the time ratio is parallel.speedup.
func (c *clusterGray) serialCheck(b *bench) {
	o, _, rep := c.runOnce(0, 1, nil, nil)
	problem := o.problem
	switch {
	case problem != "":
	case o.fingerprint != b.fps[0]:
		problem = fmt.Sprintf("fingerprint %016x, parallel %016x", o.fingerprint, b.fps[0])
	case !reflect.DeepEqual(rep, c.firstRep):
		problem = "report differs from the parallel report"
	}
	b.attempted += o.ops
	if problem != "" {
		b.problem("serial rerun of sub-input 0: %s", problem)
		b.failed += o.ops
	}
	b.rep.set("parallel.speedup", "x", o.host.Seconds()/median(c.par), len(c.par))
}
