package main

import (
	"math/rand"
	"time"

	"ugpu/internal/addr"
	"ugpu/internal/cache"
	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/dram"
	"ugpu/internal/gpu"
	"ugpu/internal/noc"
	"ugpu/internal/tlb"
	"ugpu/internal/workload"
)

// Component drives time the cycle-loop layers' public calls on inputs
// generated from partition-busy's benchmarks and the run seed. Each reports
// the minimum ns/op over componentReps repetitions of a fixed operation count.
const (
	componentReps = 5
	driveAddrs    = 1 << 16 // line addresses in the generated trace
)

// drives runs every component drive and reports <layer>.ns_per_op.
func drives(rep *report, cfg config.Config, mix workload.Mix) error {
	trace := addressTrace(cfg, mix)
	rep.set("workload.ns_per_op", "ns", minNsPerOp(func() int { return driveWorkload(cfg, mix) }), componentReps)
	rep.set("tlb.ns_per_op", "ns", minNsPerOp(func() int { return driveTLB(cfg, trace) }), componentReps)
	rep.set("cache.ns_per_op", "ns", minNsPerOp(func() int { return driveCache(cfg, trace) }), componentReps)
	rep.set("cache.mshr.ns_per_op", "ns", minNsPerOp(func() int { return driveMSHR(cfg, trace) }), componentReps)
	rep.set("noc.ns_per_op", "ns", minNsPerOp(func() int { return driveNoC(cfg, trace) }), componentReps)
	rep.set("dram.ns_per_op", "ns", minNsPerOp(func() int { return driveDRAM(cfg, trace) }), componentReps)
	profiles, err := epochProfiles(cfg, mix)
	if err != nil {
		return err
	}
	rep.set("core.ns_per_op", "ns", minNsPerOp(func() int { return driveAlgorithm(cfg, profiles) }), componentReps)
	return nil
}

// minNsPerOp runs f componentReps times; f returns its operation count.
func minNsPerOp(f func() int) float64 {
	best := 0.0
	for i := 0; i < componentReps; i++ {
		t0 := time.Now()
		n := f()
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// warpStreams builds one warp stream per app of the mix, seeded from the
// run seed.
func warpStreams(cfg config.Config, mix workload.Mix) []*workload.WarpStream {
	var out []*workload.WarpStream
	for i, b := range mix.Apps {
		d := workload.NewDispatcher(b, pbScale, cfg.PageBytes)
		out = append(out, d.NewWarpStream(d.NextTB(), 0, cfg.PageBytes, uint64(cfg.Seed)<<8+uint64(i)))
	}
	return out
}

// addressTrace is the line-address trace of the mix's memory instructions,
// each tagged with its app id at bit 40.
func addressTrace(cfg config.Config, mix workload.Mix) []uint64 {
	streams := warpStreams(cfg, mix)
	out := make([]uint64, 0, driveAddrs)
	buf := make([]uint64, 0, 8)
	for i := 0; len(out) < driveAddrs; i++ {
		app := i % len(streams)
		for _, va := range streams[app].NextInstr(buf) {
			out = append(out, va|uint64(app)<<40)
		}
	}
	return out[:driveAddrs]
}

var sinkU64 uint64

func driveWorkload(cfg config.Config, mix workload.Mix) int {
	const n = 1 << 20
	streams := warpStreams(cfg, mix)
	buf := make([]uint64, 0, 8)
	for i := 0; i < n; i++ {
		buf = streams[i&1].NextInstr(buf)
		sinkU64 += uint64(len(buf))
	}
	return n
}

func driveTLB(cfg config.Config, trace []uint64) int {
	t := tlb.NewFullyAssociative(cfg.L1TLBEntries)
	for _, va := range trace {
		key := tlb.Key(int(va>>40), va/uint64(cfg.PageBytes))
		if pa, ok := t.Lookup(key); ok {
			sinkU64 += pa
		} else {
			t.Insert(key, va)
		}
	}
	return len(trace)
}

func driveCache(cfg config.Config, trace []uint64) int {
	c := cache.New(cfg.L1Sets, cfg.L1Ways, cfg.L1LineBytes)
	for _, pa := range trace {
		if !c.Access(pa) {
			c.Fill(pa)
		}
	}
	return len(trace)
}

// driveMSHR keeps up to half the MSHR outstanding, retiring the oldest line
// when full; one op is one Add plus its share of Remove/Recycle.
func driveMSHR(cfg config.Config, trace []uint64) int {
	m := cache.NewMSHR(cfg.L1MSHRs, 0)
	fifo := make([]uint64, 0, len(trace))
	head := 0
	for _, pa := range trace {
		line := pa >> 7
		if alloc, ok := m.Add(line, nil); ok && alloc {
			fifo = append(fifo, line)
		}
		for m.Len() > cfg.L1MSHRs/2 {
			m.Recycle(m.Remove(fifo[head]))
			head++
		}
	}
	return len(trace)
}

// driveNoC injects eight messages per cycle from SM ports to LLC-slice
// ports (one per trace address) and ticks the crossbar.
func driveNoC(cfg config.Config, trace []uint64) int {
	x := noc.New(cfg.NumSMs, cfg.LLCSlices, cfg.NoCLinkBytes, cfg.NoCLatency)
	delivered := 0
	deliver := func(uint64, any) { delivered++ }
	cycle := uint64(0)
	for i, pa := range trace {
		x.SendTagged(cycle, i%cfg.NumSMs, int(pa>>7)%cfg.LLCSlices, cfg.L1LineBytes, deliver, nil)
		if i%8 == 7 {
			x.Tick(cycle)
			cycle++
		}
	}
	for x.Pending() > 0 {
		x.Tick(cycle)
		cycle++
	}
	return delivered
}

// driveDRAM keeps up to QueueEntries reads per channel in flight through the
// HBM scheduler; one op is one completed request.
func driveDRAM(cfg config.Config, trace []uint64) int {
	h := dram.New(cfg, 2)
	m := addr.NewCustomMapper(cfg)
	done := 0
	pool := make([]*dram.Request, 0, 1024)
	onDone := func(_ uint64, r *dram.Request) {
		done++
		pool = append(pool, r)
	}
	for i := 0; i < cap(pool); i++ {
		pool = append(pool, &dram.Request{Done: onDone})
	}
	cycle := uint64(0)
	next := 0
	for done < len(trace) {
		for next < len(trace) && len(pool) > 0 {
			r := pool[len(pool)-1]
			pa := trace[next] &^ (1 << 40)
			r.Addr, r.Loc, r.AppID = pa, m.Decode(pa), int(trace[next]>>40)
			if !h.Enqueue(cycle, r) {
				break
			}
			pool = pool[:len(pool)-1]
			next++
		}
		h.Tick(cycle)
		cycle++
	}
	return done
}

// epochProfiles are the algorithm inputs: one epoch of the mix on an even
// partition, then seeded perturbations of its APKI and LLC hit rates.
func epochProfiles(cfg config.Config, mix workload.Mix) ([][]core.Profile, error) {
	groups := cfg.ChannelGroups()
	specs := make([]gpu.AppSpec, len(mix.Apps))
	for i, b := range mix.Apps {
		var gs []int
		for g := i * groups / len(mix.Apps); g < (i+1)*groups/len(mix.Apps); g++ {
			gs = append(gs, g)
		}
		specs[i] = gpu.AppSpec{Bench: b, SMs: cfg.NumSMs / len(mix.Apps), Groups: gs}
	}
	opt := gpu.DefaultOptions()
	opt.FootprintScale = pbScale
	g, err := gpu.New(cfg, specs, opt)
	if err != nil {
		return nil, err
	}
	g.Run(pbEpoch)
	base := make([]core.Profile, 0, len(mix.Apps))
	for _, e := range g.EndEpoch() {
		base = append(base, core.ProfileOf(e))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([][]core.Profile, 256)
	for i := range out {
		ps := append([]core.Profile(nil), base...)
		for j := range ps {
			ps[j].APKI *= 0.5 + rng.Float64()
			ps[j].HitLLC = rng.Float64()
		}
		out[i] = ps
	}
	return out, nil
}

var sinkInt int

func driveAlgorithm(cfg config.Config, profiles [][]core.Profile) int {
	alg := core.NewAlgorithm(cfg)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		d := alg.Run(profiles[i%len(profiles)])
		sinkInt += d.Iterations
	}
	return n
}
