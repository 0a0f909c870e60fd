package gpu

// Event-driven fast-forward engine.
//
// The per-cycle loop in tick() is exact but wasteful when the machine is
// quiescent: every warp blocked on memory, every network and DRAM queue
// empty, nothing due on the timer wheel. Two complementary mechanisms remove
// that waste without changing a single observable result:
//
//  1. Cycle skipping. Before each tick, nextActivity() computes a
//     conservative lower bound on the earliest cycle at which tick() could
//     change any state. If the bound is in the future, runSpan jumps g.cycle
//     there directly, reconciling the only cycle-proportional counter that
//     could accrue across the gap (smMigCycles) in closed form. The bound is
//     conservative in the safe direction: it may equal the current cycle
//     (skip nothing — exactly the baseline), but it must never be later than
//     a real state change. Whenever quiescence cannot be proven cheaply, a
//     component "gates" the skip by bounding at the current cycle.
//
//  2. An active-SM set. Instead of ticking all NumSMs SMs every cycle, the
//     loop visits only SMs that can make progress: Active/Draining SMs with
//     an issuable warp or a pending L1 retry, plus Switching SMs (whose tick
//     is their completion mechanism). An Active/Draining SM with every warp
//     blocked is "parked": its per-cycle tick would do nothing except accrue
//     one ActiveCycle and one StallCycle, so those are settled lazily from
//     smParkedAt when the SM wakes (sm.Wake callback), at epoch boundaries,
//     and in SMActiveCycles. Set membership is maintained on warp wake,
//     assign, drain/switch, fail, and release; the set is kept sorted by SM
//     id so issue order — and therefore every downstream NoC/DRAM
//     sequence — matches the baseline loop exactly.
//
// Both mechanisms are elisions of provable no-ops, so Totals, epoch stats,
// traces, and figure outputs are byte-identical with the engine on or off
// (Options.NoFastForward). The differential tests in fastforward_test.go and
// the experiments package's TestModeMatrix pin that property down.

import "ugpu/internal/sm"
import "ugpu/internal/trace"

// FastForwardStats reports how much work the engine elided (diagnostics).
type FastForwardStats struct {
	Skips         uint64 // number of multi-cycle jumps taken
	SkippedCycles uint64 // total cycles elided by those jumps
}

// FastForwardStats returns the engine's cumulative skip counters.
func (g *GPU) FastForwardStats() FastForwardStats { return g.ffStats }

// runSpan advances the simulation to the absolute cycle `end`, skipping
// provably-dead spans when fast-forward is enabled.
func (g *GPU) runSpan(end uint64) {
	if g.opt.NoFastForward {
		for g.cycle < end {
			g.tick()
		}
		return
	}
	for g.cycle < end {
		if t := g.nextActivity(); t > g.cycle {
			if t > end {
				t = end
			}
			g.skipTo(t)
			continue
		}
		g.tick()
	}
}

// skipTo jumps the clock to cycle t (> g.cycle), reconciling cycle-
// proportional counters in closed form. Skips only happen when no data
// migration state exists (nextActivity gates on it), so dataMigCycles never
// accrues across a skip; smMigCycles accrues iff reconfigSMs > 0, which
// cannot change mid-skip because nothing fires inside the span.
func (g *GPU) skipTo(t uint64) {
	span := t - g.cycle
	if g.reconfigSMs > 0 {
		g.smMigCycles += span
	}
	g.ffStats.Skips++
	g.ffStats.SkippedCycles += span
	g.tr.Note(trace.KFastForward)
	g.cycle = t
}

// nextActivity returns a conservative lower bound on the earliest cycle at
// which tick() could change any simulation state. Returning g.cycle means
// "tick now" (no skip); any later value certifies that every tick before it
// would be a no-op.
func (g *GPU) nextActivity() uint64 {
	c := g.cycle
	// Gates: machine states whose per-cycle work is not provably inert.
	// Data-migration state also accrues dataMigCycles every cycle, so gating
	// on it keeps skipTo's counter reconciliation trivial.
	if g.migActive > 0 || len(g.migQueue) > 0 || g.hbm.PendingMigrations() > 0 {
		return c
	}
	// Parked LLC retries and the LLC->DRAM spill queue drain in retrySlices.
	if g.parkedTotal > 0 || g.toDramTotal > 0 {
		return c
	}
	// Any runnable (non-Switching) SM in the active set issues this cycle.
	if len(g.activeSM)-g.switchingInSet > 0 {
		return c
	}
	if g.inj.Armed(c) {
		return c
	}

	next := ^uint64(0)
	// Switching SMs complete (and hand off) inside their own Tick at
	// switchUntil. Members whose state changed since the last tickSMs pass
	// simply contribute nothing; they are dropped on the next pass.
	for _, id := range g.activeSM {
		s := g.sms[id]
		if s.State() == sm.Switching {
			if at := s.SwitchUntil(); at < next {
				next = at
			}
		}
	}
	if at, ok := g.wheel.next(c); ok && at < next {
		next = at
	}
	if at, ok := g.reqNet.NextArrival(); ok && at < next {
		next = at
	}
	if at, ok := g.rspNet.NextArrival(); ok && at < next {
		next = at
	}
	if at, ok := g.walker.NextDone(); ok && at < next {
		next = at
	}
	if at, ok := g.hbm.NextActivity(c); ok && at < next {
		next = at
	}
	if at, ok := g.inj.NextCycle(); ok && at < next {
		next = at
	}
	// Scrub runs on 64-cycle boundaries whenever migration is armed; it can
	// start new migrations from watermark drift, so its boundaries always
	// bound the skip.
	if !g.opt.DisableMigration && g.opt.ScrubBatch > 0 {
		if c&63 == 0 {
			return c
		}
		if at := ((c >> 6) + 1) << 6; at < next {
			next = at
		}
	}
	if next < c {
		return c
	}
	return next
}

// onSMWake is installed as every SM's Wake hook when fast-forward is
// enabled. It fires on any transition that could make an inert SM need
// ticking again (warp unblocked, app assigned, switch begun, fail, release):
// it settles lazily-accrued stall statistics and inserts the SM into the
// active set if its state warrants ticking.
func (g *GPU) onSMWake(s *sm.SM) {
	id := s.ID
	if g.smParked[id] {
		g.settleSM(id)
		g.smParked[id] = false
	}
	switch s.State() {
	case sm.Active, sm.Draining, sm.Switching:
		if !g.smInSet[id] {
			g.smInSet[id] = true
			if g.smPhase {
				// Mid-pass wake for an SM outside the current set: defer the
				// sorted insert so the in-place compaction is not disturbed
				// (tickSMs merges and counts these after its recount).
				g.pendingWakes = append(g.pendingWakes, int32(id))
			} else {
				g.insertActiveSM(int32(id))
				if s.State() == sm.Switching {
					g.switchingInSet++
				}
			}
		}
	}
}

// settleSM credits a parked SM with the ActiveCycles/StallCycles it would
// have accrued ticking through [smParkedAt, g.cycle): a parked SM is Active
// or Draining with every warp blocked, and such a tick does exactly one
// ActiveCycles++ and one StallCycles++ and nothing else. Under DVFS the SM
// only ticks on its domain's gate-open cycles, so the credit is the closed
// form of the same gate the per-cycle paths evaluate (exact because state
// changes happen only at epoch boundaries, after all parked SMs settle).
func (g *GPU) settleSM(id int) {
	if at := g.smParkedAt[id]; g.cycle > at {
		n := g.cycle - at
		if g.pm != nil {
			n = g.pm.SMOpenCycles(id, at, g.cycle)
		}
		if n > 0 {
			g.sms[id].AccrueStall(n)
		}
		g.smParkedAt[id] = g.cycle
	}
}

// settleParked settles every parked SM up to the current cycle so Stats()
// reads are exact at observation points (epoch boundaries, energy totals).
// The SMs stay parked.
func (g *GPU) settleParked() {
	for id := range g.smParked {
		if g.smParked[id] {
			g.settleSM(id)
		}
	}
}

// insertActiveSM inserts id into the ascending active set.
func (g *GPU) insertActiveSM(id int32) {
	a := append(g.activeSM, 0)
	i := len(a) - 1
	for i > 0 && a[i-1] > id {
		a[i] = a[i-1]
		i--
	}
	a[i] = id
	g.activeSM = a
}

// tickSMs ticks the active set in SM-id order (matching the baseline
// all-SMs loop) and compacts it in place: members that can no longer make
// progress are parked (Active/Draining, all warps blocked) or dropped
// (Idle/Failed). switchingInSet is recounted over the kept members, so the
// runnable-SM gate in nextActivity is O(1).
func (g *GPU) tickSMs(c uint64) {
	g.smPhase = true
	a := g.activeSM
	kept := a[:0]
	switching := 0
	// Hoisted DVFS check: when every SM domain is settled at nominal (the
	// steady-state common case) the per-SM gate is a guaranteed no-op, so
	// skip it for the whole cycle with one branch.
	gated := g.pm != nil && !g.pm.SMAllNominal()
	for _, id := range a {
		s := g.sms[id]
		if gated {
			// DVFS issue gate (mirrors the NoFastForward loop): a gated
			// Active/Draining SM does nothing this cycle but must stay in
			// the set — its state cannot have changed.
			if st := s.State(); (st == sm.Active || st == sm.Draining) && !g.pm.SMOpen(int(id), c) {
				kept = append(kept, id)
				continue
			}
		}
		s.Tick(c, g)
		s.RetryBlocked(c, g)
		switch s.State() {
		case sm.Active, sm.Draining:
			if s.CanIssue() || s.RetryLen() > 0 {
				kept = append(kept, id)
			} else {
				// Every warp blocked: the only effect of further ticks is the
				// (+1 active, +1 stall) accrual, owed from the next cycle.
				g.smInSet[id] = false
				g.smParked[id] = true
				g.smParkedAt[id] = c + 1
			}
		case sm.Switching:
			kept = append(kept, id)
			switching++
		default: // Idle, Failed
			g.smInSet[id] = false
		}
	}
	g.activeSM = kept
	g.switchingInSet = switching
	g.smPhase = false
	for _, id := range g.pendingWakes {
		g.insertActiveSM(id)
		if g.sms[id].State() == sm.Switching {
			g.switchingInSet++
		}
	}
	g.pendingWakes = g.pendingWakes[:0]
}
