package gpu

// Whole-machine state digests (ISSUE 9). DigestComponents folds every
// stateful component into a named per-component digest; StateDigest rolls
// them into one value. The digest is canonical across execution modes: it is
// byte-identical with fast-forward on or off, with tracing on or off, under
// -parallel, and at DVFS nominal — so any cross-mode mismatch is a real
// state divergence, and the component naming localizes it.
//
// Excluded (non-semantic or mode-dependent observation state):
//   - object pools and scratch (freeReqs, freeDramReqs, freeWaiters,
//     epochDeltas/epochOut, the wheel's spare pool) and digestGen,
//   - the fast-forward engine's bookkeeping (activeSM, smInSet, smParked,
//     smParkedAt, switchingInSet, pendingWakes, ffStats) — it exists only in
//     one mode; the lazily-accrued stall statistics it defers are settled
//     (settleParked) before any SM digests,
//   - watchdog fields (lastFingerprint, lastProgressAt), which depend on
//     RunChecked's slicing cadence, not on machine state,
//   - cached bounds (wheel.nextAt/overMin; bucket-vs-overflow residency is
//     canonicalized by digesting the wheel as one event multiset).

import (
	"strconv"

	"ugpu/internal/digest"
	"ugpu/internal/sm"
)

// ensureDigestSupport builds the cached labels and waiter hashers on first
// use so steady-state digesting allocates nothing.
func (g *GPU) ensureDigestSupport() {
	if g.hashWarpFn != nil {
		return
	}
	g.hashWarpFn = func(a any) digest.Hash { return a.(*sm.Warp).DigestOnce(g.digestGen) }
	g.hashMemReqFn = func(a any) digest.Hash {
		r := a.(*memReq)
		return digest.New().Int(r.app).Int(r.sm).Int(r.slice).U64(r.pa).U64(r.vpn)
	}
	g.digestSMNames = make([]string, len(g.sms))
	for i := range g.digestSMNames {
		g.digestSMNames[i] = "sm" + strconv.Itoa(i)
	}
	g.digestSliceNames = make([]string, len(g.slices))
	for i := range g.digestSliceNames {
		g.digestSliceNames[i] = "llc" + strconv.Itoa(i)
	}
}

func hashWheelEvent(ev *wheelEvent) digest.Hash {
	return digest.New().U64(ev.at).Int(int(ev.kind)).Int(int(ev.app)).
		Int(int(ev.idx)).U64(ev.vpn).U64(ev.pa).
		Bool(ev.w != nil).Bool(ev.fn != nil)
}

// appendDigest folds the wheel as one unordered multiset over every pending
// event, wherever it currently lives: a deadline's residency (bucket vs
// overflow, and when the overflow drained) legitimately differs between
// fast-forward modes, but the logical event set does not.
func (w *wheel) appendDigest(h digest.Hash) digest.Hash {
	var acc digest.Acc
	for i := range w.buckets {
		b := w.buckets[i]
		for j := range b {
			acc.Add(hashWheelEvent(&b[j]))
		}
	}
	for i := range w.overflow {
		acc.Add(hashWheelEvent(&w.overflow[i]))
	}
	return h.Acc(acc).Int(w.pending).U64(w.fired)
}

// DigestComponents records one named digest per machine component into rec
// (rec is Reset first). Parked SMs are settled beforehand so lazily-deferred
// stall accounting cannot make identical machines digest differently.
func (g *GPU) DigestComponents(rec *digest.Recorder) {
	g.ensureDigestSupport()
	g.settleParked()
	rec.Reset()
	g.digestGen++

	h := digest.New().U64(g.cycle).U64(g.epochStart).U64(g.transVersion).
		U64(g.checkTick).U64(g.dataMigCycles).U64(g.smMigCycles).
		Int(g.parkedTotal).Int(g.toDramTotal)
	st := g.stats
	h = h.U64(st.Loads).U64(st.L1Hits).U64(st.TLBL1Hits).
		U64(st.FaultMigrations).U64(st.RebalanceMigrations).
		U64(st.ScrubMigrations).U64(st.ChecksSampled)
	for _, n := range g.memInFlight {
		h = h.Int(n)
	}
	rec.Add("clock", h)

	for i := range g.sms {
		h := g.sms[i].AppendDigest(digest.New())
		h = g.smL1[i].AppendDigest(h)
		h = g.smMSHR[i].AppendDigest(h, g.hashWarpFn)
		h = g.smL1TLB[i].AppendDigest(h)
		h = h.U64(g.smBase[i]).Int(g.replayQ[i].len())
		for _, r := range g.replayQ[i].entries() {
			h = h.Int(r.app).U64(r.pa).U64(r.vpn).U64(uint64(r.w.DigestOnce(g.digestGen)))
		}
		rec.Add(g.digestSMNames[i], h)
	}

	rec.Add("l2tlb", g.l2tlb.AppendDigest(digest.New()))
	rec.Add("walker", g.walker.AppendDigest(digest.New()))

	h = g.reqNet.AppendDigest(digest.New(), g.hashMemReqFn)
	h = g.rspNet.AppendDigest(h, g.hashMemReqFn)
	rec.Add("noc", h)

	for i, sl := range g.slices {
		h := sl.cache.AppendDigest(digest.New())
		h = sl.mshr.AppendDigest(h, g.hashMemReqFn)
		h = h.Int(len(sl.parked))
		for _, r := range sl.parked {
			h = h.U64(uint64(g.hashMemReqFn(r)))
		}
		h = h.Int(len(sl.toDram))
		for _, r := range sl.toDram {
			h = r.AppendDigest(h)
		}
		rec.Add(g.digestSliceNames[i], h)
	}

	rec.Add("dram", g.hbm.AppendDigest(digest.New()))
	rec.Add("vm", g.vmm.AppendDigest(digest.New()))
	rec.Add("wheel", g.wheel.appendDigest(digest.New()))

	h = digest.New().Int(len(g.apps))
	for _, app := range g.apps {
		h = h.Int(app.ID).Int(int(app.state)).Int(app.inbound).
			U64(app.TotalInstr).U64(app.baseLLCAcc).U64(app.baseLLCHit).
			U64(app.baseDRAM).U64(app.llcAcc).U64(app.llcHit)
		h = h.Int(len(app.SMs))
		for _, id := range app.SMs {
			h = h.Int(id)
		}
		h = h.Int(len(app.Groups))
		for _, gr := range app.Groups {
			h = h.Int(gr)
		}
		h = app.Disp.AppendDigest(h)
		if app.smApp != nil {
			h = h.Bool(true).Int(app.smApp.ID).Int(app.smApp.PageBytes).
				U64(app.smApp.SeedBase)
		} else {
			h = h.Bool(false)
		}
	}
	rec.Add("apps", h)

	var trans digest.Acc
	for key, ws := range g.transPending {
		eh := digest.New().U64(key).Int(len(ws))
		for _, w := range ws {
			eh = eh.Int(w.sm).U64(w.va).Int(w.app).Bool(w.w != nil)
		}
		trans.Add(eh)
	}
	rec.Add("trans", digest.New().Acc(trans))

	h = digest.New().Int(g.migActive).Int(g.reconfigSMs)
	var migs digest.Acc
	for k, v := range g.migInFlight {
		migs.Add(digest.New().U64(k).Bool(v))
	}
	h = h.Acc(migs).Int(len(g.migQueue))
	for _, j := range g.migQueue {
		h = h.Int(j.app).U64(j.vpn).Int(int(j.attempts))
	}
	var moves digest.Acc
	for id, app := range g.pendingMoveTo {
		moves.Add(digest.New().Int(id).Int(app.ID))
	}
	rec.Add("mig", h.Acc(moves))

	h = g.inj.AppendDigest(digest.New())
	for _, f := range g.failedSMs {
		h = h.Bool(f)
	}
	for _, d := range g.deadGroups {
		h = h.Bool(d)
	}
	fs := g.faultStats
	h = h.U64(fs.EmergencyMigrations).U64(fs.MigFailures).
		U64(fs.MigRetries).U64(fs.SpillRemaps).U64(g.firstFaultCycle)
	rec.Add("fault", h)

	rec.Add("power", g.pm.AppendDigest(digest.New()))
}

// StateDigest rolls every component digest into one machine-state value.
// Callers that digest repeatedly (the epoch chain, the bisector's per-cycle
// probe) should hold their own Recorder and use DigestComponents instead.
func (g *GPU) StateDigest() digest.Hash {
	var rec digest.Recorder
	g.DigestComponents(&rec)
	return rec.Fold()
}

// PerturbStateForTest injects a pure-observation state divergence: it bumps
// the L2 TLB's access counter by a value no real execution reaches, so from
// this point on the "l2tlb" component digests differently while simulated
// behaviour is completely unchanged. The digest harness's acceptance test
// uses it to prove the bisector pinpoints a single-component divergence.
func (g *GPU) PerturbStateForTest() {
	g.l2tlb.PerturbStatsForTest()
}

// SchedulePerturbForTest schedules a wheel event delta cycles ahead that
// applies PerturbStateForTest when it fires — but only when mutate is true;
// otherwise the event is a deterministic no-op. Scheduled callbacks digest as
// presence bits, so two runs that schedule the event at the same cycle stay
// digest-identical until the mutating one fires: this is how the bisector's
// tests plant a divergence in the middle of an epoch rather than at its
// boundary.
func (g *GPU) SchedulePerturbForTest(delta uint64, mutate bool) {
	g.wheel.schedule(g.cycle, g.cycle+delta, func(uint64) {
		if mutate {
			g.l2tlb.PerturbStatsForTest()
		}
	})
}
