package gpu

// The memory path: SM load -> L1 TLB -> L1 cache -> NoC -> LLC slice ->
// HBM channel, with the Section 4.4 PageMove hooks on the translation path
// (channel-allocation check at the L2 TLB, fault-driven page migration).

import (
	"fmt"

	"ugpu/internal/dram"
	"ugpu/internal/sm"
	"ugpu/internal/tlb"
	"ugpu/internal/trace"
)

// newMemReq pops a request from the GPU's freelist (refilled in l1Fill,
// where every request's life ends) or allocates one. Reusing requests keeps
// the per-load steady state allocation-free.
func (g *GPU) newMemReq(app, smID, slice int, pa, vpn uint64) *memReq {
	var req *memReq
	if n := len(g.freeReqs); n > 0 {
		req = g.freeReqs[n-1]
		g.freeReqs[n-1] = nil
		g.freeReqs = g.freeReqs[:n-1]
	} else {
		req = new(memReq)
	}
	*req = memReq{app: app, sm: smID, slice: slice, pa: pa, vpn: vpn}
	return req
}

// newDramReq pops a dram.Request from the freelist (refilled by the shared
// dramDone/ctxDone callbacks once the controller is finished with it).
func (g *GPU) newDramReq() *dram.Request {
	if n := len(g.freeDramReqs); n > 0 {
		r := g.freeDramReqs[n-1]
		g.freeDramReqs[n-1] = nil
		g.freeDramReqs = g.freeDramReqs[:n-1]
		return r
	}
	return new(dram.Request)
}

// releaseDramReq returns a completed DRAM request to the freelist. Callers
// must not retain the request afterwards.
func (g *GPU) releaseDramReq(r *dram.Request) {
	*r = dram.Request{}
	g.freeDramReqs = append(g.freeDramReqs, r)
}

// IssueLoad implements sm.Port. Loads are always accepted; backpressure is
// modelled by the L1 MSHR replay queue and the warp's outstanding-load
// bound, so an accepted load always eventually calls w.LoadDone.
func (g *GPU) IssueLoad(cycle uint64, smID, appID int, va uint64, w *sm.Warp) bool {
	g.stats.Loads++
	vpn := va >> g.pageShift
	off := va & (uint64(g.cfg.PageBytes) - 1)

	// Per-warp one-entry translation filter: consecutive accesses to the
	// same page skip the TLB lookup entirely.
	if w.LastValid && w.LastVer == g.transVersion && w.LastVPN == vpn {
		g.stats.TLBL1Hits++
		g.l1AccessAsync(cycle, smID, appID, w.LastPA|off, vpn, w)
		return true
	}
	if pa, ok := g.smL1TLB[smID].Lookup(tlb.Key(appID, vpn)); ok {
		g.stats.TLBL1Hits++
		w.LastVPN, w.LastPA, w.LastVer, w.LastValid = vpn, pa, g.transVersion, true
		g.l1AccessAsync(cycle, smID, appID, pa|off, vpn, w)
		return true
	}
	// L1 TLB miss: the access continues asynchronously through the L2 TLB;
	// it is accepted now and the warp tracks it as outstanding. Concurrent
	// misses to the same page merge onto one in-flight translation.
	key := tlb.Key(appID, vpn)
	if ws, ok := g.transPending[key]; ok {
		g.transPending[key] = append(ws, migWaiter{sm: smID, va: va, w: w, app: appID})
		return true
	}
	var ws []migWaiter
	if n := len(g.freeWaiters); n > 0 {
		ws = g.freeWaiters[n-1]
		g.freeWaiters[n-1] = nil
		g.freeWaiters = g.freeWaiters[:n-1]
	} else {
		ws = make([]migWaiter, 0, 4)
	}
	g.transPending[key] = append(ws, migWaiter{sm: smID, va: va, w: w, app: appID})
	g.wheel.scheduleEvent(cycle, wheelEvent{
		at: cycle + uint64(g.cfg.L2TLBLatency), kind: evL2Translate,
		app: int32(appID), vpn: vpn,
	})
	return true
}

// l1AccessAsync is the post-translation replay: it cannot reject, so on a
// full MSHR the access parks in the SM's replay queue, drained as fills
// free MSHR entries.
func (g *GPU) l1AccessAsync(cycle uint64, smID, appID int, pa, vpn uint64, w *sm.Warp) {
	l1 := g.smL1[smID]
	if l1.Access(pa) {
		g.stats.L1Hits++
		g.scheduleWarpDone(cycle, cycle+uint64(g.cfg.L1HitLatency), appID, vpn, w)
		return
	}
	line := pa >> g.lineShift
	mshr := g.smMSHR[smID]
	alloc, ok := mshr.Add(line, w)
	if !ok {
		g.replayQ[smID].push(replayReq{app: appID, pa: pa, vpn: vpn, w: w})
		return
	}
	if alloc {
		g.sendToLLC(cycle, smID, appID, pa, vpn)
	}
}

func (g *GPU) scheduleWarpDone(now, at uint64, appID int, vpn uint64, w *sm.Warp) {
	if g.testBlackhole {
		return // injected livelock (watchdog tests): the load never completes
	}
	g.maybeCheck(appID, vpn)
	g.wheel.scheduleEvent(now, wheelEvent{at: at, kind: evWarpDone, w: w})
}

// maybeCheck samples data-correctness verification (content tags).
func (g *GPU) maybeCheck(appID int, vpn uint64) {
	if !g.opt.CheckReads {
		return
	}
	g.checkTick++
	if g.checkTick&0xFF != 0 {
		return
	}
	g.stats.ChecksSampled++
	if err := g.vmm.CheckRead(appID, vpn); err != nil {
		panic(fmt.Sprintf("gpu: data corruption detected: %v", err))
	}
}

// sliceOf routes a physical line to its LLC slice: the slices of the line's
// channel, sub-indexed by a bank-group bit.
func (g *GPU) sliceOf(pa uint64) int {
	ch := g.mapper.GlobalChannel(pa)
	sub := int(pa>>9) & (g.cfg.SlicesPerChannel() - 1)
	return ch*g.cfg.SlicesPerChannel() + sub
}

func (g *GPU) sendToLLC(cycle uint64, smID, appID int, pa, vpn uint64) {
	slice := g.sliceOf(pa)
	req := g.newMemReq(appID, smID, slice, pa, vpn)
	g.memInFlight[appID]++
	g.reqNet.SendTagged(cycle, smID, slice, 32, g.onLLCArrive, req)
}

func (g *GPU) llcArrive(at uint64, sliceIdx int, req *memReq) {
	sl := g.slices[sliceIdx]
	app := g.apps[req.app]
	app.llcAcc++
	if sl.cache.Access(req.pa) {
		app.llcHit++
		g.replyToSM(at+uint64(g.cfg.LLCLatency), sliceIdx, req)
		return
	}
	line := req.pa >> g.lineShift
	alloc, ok := sl.mshr.Add(line, req)
	if !ok {
		sl.parked = append(sl.parked, req)
		g.parkedTotal++
		return
	}
	if alloc {
		g.llcToDram(at, sliceIdx, req)
	}
}

func (g *GPU) llcToDram(at uint64, sliceIdx int, req *memReq) {
	dreq := g.newDramReq()
	*dreq = dram.Request{
		Addr:  req.pa,
		Loc:   g.mapper.Decode(req.pa),
		AppID: req.app,
		Tag:   int32(sliceIdx),
		Done:  g.dramDone,
	}
	if !g.hbm.Enqueue(at, dreq) {
		g.slices[sliceIdx].toDram = append(g.slices[sliceIdx].toDram, dreq)
		g.toDramTotal++
	}
}

func (g *GPU) dramFill(at uint64, sliceIdx int, pa uint64) {
	sl := g.slices[sliceIdx]
	sl.cache.Fill(pa)
	line := pa >> g.lineShift
	ws := sl.mshr.Remove(line)
	for _, wtr := range ws {
		g.replyToSM(at, sliceIdx, wtr.(*memReq))
	}
	sl.mshr.Recycle(ws)
	g.drainParked(at, sliceIdx, len(sl.parked))
}

// drainParked re-attempts requests parked on a full LLC MSHR, up to limit.
func (g *GPU) drainParked(at uint64, sliceIdx int, limit int) {
	sl := g.slices[sliceIdx]
	if len(sl.parked) == 0 || limit <= 0 {
		return
	}
	n := 0
	for ; n < len(sl.parked) && n < limit; n++ {
		req := sl.parked[n]
		line := req.pa >> g.lineShift
		alloc, ok := sl.mshr.Add(line, req)
		if !ok {
			break
		}
		if alloc {
			g.llcToDram(at, sliceIdx, req)
		}
	}
	if n > 0 {
		tail := len(sl.parked) - n
		copy(sl.parked, sl.parked[n:])
		for i := tail; i < len(sl.parked); i++ {
			sl.parked[i] = nil
		}
		sl.parked = sl.parked[:tail]
		g.parkedTotal -= n
	}
}

func (g *GPU) replyToSM(at uint64, sliceIdx int, req *memReq) {
	// Reply carries one cache line plus header.
	g.rspNet.SendTagged(at, sliceIdx, req.sm, g.cfg.L1LineBytes+32, g.onSMReply, req)
}

func (g *GPU) l1Fill(at uint64, req *memReq) {
	g.smL1[req.sm].Fill(req.pa)
	line := req.pa >> g.lineShift
	mshr := g.smMSHR[req.sm]
	ws := mshr.Remove(line)
	for _, wtr := range ws {
		w := wtr.(*sm.Warp)
		g.maybeCheck(req.app, req.vpn)
		if g.testBlackhole {
			continue // injected livelock: swallow the completion
		}
		w.LoadDone()
	}
	mshr.Recycle(ws)
	g.drainReplays(at, req.sm)
	// The request's life ends here on both the hit and miss paths; recycle it.
	g.memInFlight[req.app]--
	g.freeReqs = append(g.freeReqs, req)
}

// drainReplays re-attempts parked post-translation accesses, oldest first,
// now that MSHR space freed up. An access that parks again goes to the tail
// and waits for a later fill.
func (g *GPU) drainReplays(at uint64, smID int) {
	q := &g.replayQ[smID]
	mshr := g.smMSHR[smID]
	for n := q.len(); n > 0 && !mshr.Full(); n-- {
		g.l1AccessAsyncNoPark(at, smID, q.pop())
	}
}

// l1AccessAsyncNoPark is drainReplays' re-attempt; MSHR space was checked.
func (g *GPU) l1AccessAsyncNoPark(cycle uint64, smID int, r replayReq) {
	l1 := g.smL1[smID]
	if l1.Access(r.pa) {
		g.stats.L1Hits++
		g.scheduleWarpDone(cycle, cycle+uint64(g.cfg.L1HitLatency), r.app, r.vpn, r.w)
		return
	}
	line := r.pa >> g.lineShift
	alloc, ok := g.smMSHR[smID].Add(line, r.w)
	if !ok {
		g.replayQ[smID].push(r)
		return
	}
	if alloc {
		g.sendToLLC(cycle, smID, r.app, r.pa, r.vpn)
	}
}

// retrySlices replays parked LLC work each cycle. The idle fast path skips
// the 64-slice scan entirely when nothing is parked anywhere.
func (g *GPU) retrySlices(cycle uint64) {
	if g.toDramTotal == 0 && g.parkedTotal == 0 {
		return
	}
	spc := g.cfg.SlicesPerChannel()
	for idx, sl := range g.slices {
		if len(sl.toDram) > 0 && g.hbm.QueueSpace(idx/spc) > 0 {
			n := 0
			for ; n < len(sl.toDram); n++ {
				if !g.hbm.Enqueue(cycle, sl.toDram[n]) {
					break
				}
			}
			if n > 0 {
				tail := len(sl.toDram) - n
				copy(sl.toDram, sl.toDram[n:])
				for i := tail; i < len(sl.toDram); i++ {
					sl.toDram[i] = nil
				}
				sl.toDram = sl.toDram[:tail]
				g.toDramTotal -= n
			}
		}
		g.drainParked(cycle, idx, 4)
	}
}

// l2Translate resolves one merged translation at the shared L2 TLB
// (Section 4.4).
func (g *GPU) l2Translate(at uint64, appID int, vpn uint64) {
	key := tlb.Key(appID, vpn)
	if g.apps[appID].state == appVacant {
		// Belt and braces: a vacant slot owns no pages, so a stale translation
		// event must be dropped rather than allocating into an empty space.
		delete(g.transPending, key)
		return
	}
	if pa, ok := g.l2tlb.Lookup(key); ok {
		if !g.opt.DisableMigration && g.vmm.NeedsMigration(appID, vpn, pa) {
			// Channel-allocation register mismatch: invalidate and fault
			// to the driver.
			g.l2tlb.Invalidate(key)
			g.faultMigrate(at, appID, vpn)
			return
		}
		if !g.opt.DisableMigration && g.vmm.WantsRebalance(appID, vpn, pa) {
			g.asyncRebalance(at, appID, vpn)
		}
		g.resolveTranslation(at, appID, vpn, pa, false)
		return
	}
	g.walker.EnqueueTagged(at, key, g.onWalkDone)
}

// walkDone is the page-table-walk completion path, reached via the shared
// onWalkDone callback so enqueuing a walk does not allocate.
func (g *GPU) walkDone(done uint64, appID int, vpn uint64) {
	if g.apps[appID].state == appVacant {
		delete(g.transPending, tlb.Key(appID, vpn))
		return
	}
	pa, ok := g.vmm.Translate(appID, vpn)
	if !ok {
		// Demand fault (should not happen with eager allocation, but
		// kept for completeness): driver allocates a page.
		g.wheel.schedule(done, done+uint64(g.cfg.DriverDelay), func(c uint64) {
			npa := g.vmm.HandleFault(appID, vpn)
			g.resolveTranslation(c, appID, vpn, npa, true)
		})
		return
	}
	if !g.opt.DisableMigration && g.vmm.NeedsMigration(appID, vpn, pa) {
		g.faultMigrate(done, appID, vpn)
		return
	}
	if !g.opt.DisableMigration && g.vmm.WantsRebalance(appID, vpn, pa) {
		g.asyncRebalance(done, appID, vpn)
	}
	g.resolveTranslation(done, appID, vpn, pa, true)
}

// resolveTranslation installs the translation and replays every merged
// waiter's L1 access.
func (g *GPU) resolveTranslation(at uint64, appID int, vpn, pa uint64, fillL2 bool) {
	key := tlb.Key(appID, vpn)
	if fillL2 {
		g.l2tlb.Insert(key, pa)
	}
	waiters := g.transPending[key]
	delete(g.transPending, key)
	off := uint64(g.cfg.PageBytes) - 1
	for _, wtr := range waiters {
		g.smL1TLB[wtr.sm].Insert(key, pa)
		wtr.w.LastVPN, wtr.w.LastPA, wtr.w.LastVer, wtr.w.LastValid = vpn, pa, g.transVersion, true
		g.l1AccessAsync(at, wtr.sm, appID, pa|(wtr.va&off), vpn, wtr.w)
	}
	// Recycle the consumed waiter slice (bounded so pathological bursts do
	// not pin memory forever).
	if cap(waiters) > 0 && len(g.freeWaiters) < 256 {
		waiters = waiters[:cap(waiters)]
		for i := range waiters {
			waiters[i] = migWaiter{}
		}
		g.freeWaiters = append(g.freeWaiters, waiters[:0])
	}
}

func migKey(appID int, vpn uint64) uint64 { return tlb.Key(appID, vpn) }

// maxConcurrentMigrations bounds page-migration jobs in flight; additional
// faults queue at the driver (which processes them in order).
const maxConcurrentMigrations = 8

// faultMigrate stalls the page's merged translation behind a fault-driven
// migration: the GPU driver (DriverDelay) plans the move, PageMove copies
// the page, and the waiting accesses replay with the new translation.
func (g *GPU) faultMigrate(at uint64, appID int, vpn uint64) {
	k := migKey(appID, vpn)
	if g.migInFlight[k] {
		return
	}
	g.migInFlight[k] = true
	g.stats.FaultMigrations++
	g.wheel.schedule(at, at+uint64(g.cfg.DriverDelay), func(c uint64) {
		g.migQueue = append(g.migQueue, migJobReq{app: appID, vpn: vpn})
		g.startQueuedMigrations(c)
	})
}

// asyncRebalance queues a non-blocking migration of an accessed page toward
// newly gained channels (Section 4.4's inbound path). The triggering access
// proceeds against the old frame; the TLB shootdown at commit repoints
// later accesses.
func (g *GPU) asyncRebalance(at uint64, appID int, vpn uint64) {
	k := migKey(appID, vpn)
	if g.migInFlight[k] || len(g.migQueue) >= 4*maxConcurrentMigrations {
		return // driver queue full: skip; a later access retries
	}
	g.migInFlight[k] = true
	g.stats.RebalanceMigrations++
	g.migQueue = append(g.migQueue, migJobReq{app: appID, vpn: vpn})
	g.startQueuedMigrations(at)
}

// maxMigrationAttempts bounds hardware-copy attempts per page before the
// driver gives up on PageMove and spills to the slow-path remap.
const maxMigrationAttempts = 3

// startQueuedMigrations begins queued page copies while concurrency allows.
// A job whose MIGRATION commands exhaust their NACK retries (fault
// injection) aborts the reserved destination frame and re-queues with
// exponential driver backoff; after maxMigrationAttempts the page is
// rehomed by the slow-path driver remap instead. The page's migInFlight
// mark survives retries, so merged translation waiters keep waiting and are
// woken exactly once by completeMigration on every terminal path.
func (g *GPU) startQueuedMigrations(at uint64) {
	for g.migActive < maxConcurrentMigrations && len(g.migQueue) > 0 {
		req := g.migQueue[0]
		g.migQueue = g.migQueue[1:]
		appID, vpn := req.app, req.vpn
		mig := g.vmm.PlanMigration(appID, vpn, -1)
		if mig == nil {
			// Already migrated or nothing to move.
			g.completeMigration(at, appID, vpn)
			continue
		}
		g.migActive++
		attempts := req.attempts
		g.tr.Emit(trace.KMigBegin, at, int32(appID), 0, int64(vpn), int64(attempts), 0)
		err := g.hbm.StartMigrationChecked(at, mig.Src, mig.Dst, g.opt.MigrationMode, appID,
			func(done uint64) {
				mig.Commit()
				g.migActive--
				g.tr.Emit(trace.KMigCommit, done, int32(appID), 0, int64(vpn), 0, 0)
				g.completeMigration(done, appID, vpn)
				g.evacuateIfDead(done, appID, vpn)
				g.startQueuedMigrations(done)
			},
			func(done uint64) {
				mig.Abort()
				g.migActive--
				g.faultStats.MigFailures++
				g.tr.Emit(trace.KMigFail, done, int32(appID), 0, int64(vpn), int64(attempts)+1, 0)
				if attempts+1 < maxMigrationAttempts {
					g.faultStats.MigRetries++
					backoff := uint64(g.cfg.DriverDelay) << (attempts + 1)
					g.tr.Emit(trace.KMigRetry, done, int32(appID), 0, int64(vpn), int64(attempts)+1, int64(backoff))
					g.wheel.schedule(done, done+backoff, func(c uint64) {
						// Retries jump the queue: the page has already waited a
						// full attempt plus backoff, and re-queueing at the tail
						// behind a mass evacuation would defer the second attempt
						// (and the final spill remap) almost indefinitely.
						g.migQueue = append([]migJobReq{{app: appID, vpn: vpn, attempts: attempts + 1}}, g.migQueue...)
						g.startQueuedMigrations(c)
					})
				} else {
					g.spillRemap(done, appID, vpn)
				}
				g.startQueuedMigrations(done)
			})
		if err != nil {
			panic(fmt.Sprintf("gpu: migration start failed: %v", err))
		}
	}
}

// evacuateIfDead queues an emergency evacuation for a page that has just
// landed on a dead channel group. A group can die while a migration into it
// is still in flight — DegradeChannel lets pending copies drain and commit —
// so the freshly committed page must immediately move again, with exactly
// the bookkeeping failGroup uses for pages resident at failure time.
// Without this, the page would sit on the dead group with no pending
// migration, which the watchdog's page-on-dead-group invariant rejects.
func (g *GPU) evacuateIfDead(at uint64, appID int, vpn uint64) {
	pa, ok := g.vmm.Translate(appID, vpn)
	if !ok || !g.deadGroups[g.mapper.ChannelGroup(pa)] {
		return
	}
	k := migKey(appID, vpn)
	if g.migInFlight[k] {
		return
	}
	g.migInFlight[k] = true
	g.faultStats.EmergencyMigrations++
	g.tr.Emit(trace.KMigEvacuate, at, int32(appID), int32(g.mapper.ChannelGroup(pa)), int64(vpn), 0, 0)
	g.migQueue = append(g.migQueue, migJobReq{app: appID, vpn: vpn})
}

// spillRemap is the last-resort path for a page whose hardware copies keep
// failing: after a page-fault-scale driver delay the page is rehomed onto a
// live group (the driver copies the data through the ordinary read path) and
// the stalled translation resolves.
func (g *GPU) spillRemap(at uint64, appID int, vpn uint64) {
	g.faultStats.SpillRemaps++
	g.tr.Emit(trace.KMigSpill, at, int32(appID), 0, int64(vpn), 0, 0)
	g.wheel.schedule(at, at+uint64(g.cfg.PageFaultDelay), func(c uint64) {
		g.vmm.RemapPage(appID, vpn)
		g.completeMigration(c, appID, vpn)
	})
}

// completeMigration performs the TLB shootdown for the moved page and
// resolves the page's pending translation (waking merged waiters).
func (g *GPU) completeMigration(at uint64, appID int, vpn uint64) {
	delete(g.migInFlight, migKey(appID, vpn))
	key := tlb.Key(appID, vpn)
	g.l2tlb.Invalidate(key)
	for _, t := range g.smL1TLB {
		t.Invalidate(key)
	}
	g.transVersion++ // stale per-warp translation filters
	pa, ok := g.vmm.Translate(appID, vpn)
	if !ok {
		panic(fmt.Sprintf("gpu: page app%d/%#x vanished during migration", appID, vpn))
	}
	g.resolveTranslation(at, appID, vpn, pa, true)
}

// scrub starts optional background migrations for pages stranded outside
// their app's channel groups (and the forced-reshuffle set under
// OriReshuffle). The paper's design is purely fault-driven (Section 4.4);
// scrubbing is an extension enabled by Options.ScrubBatch > 0 and evaluated
// as an ablation.
func (g *GPU) scrub(cycle uint64) {
	if g.opt.DisableMigration || g.opt.ScrubBatch <= 0 {
		return
	}
	budget := g.opt.ScrubBatch - g.migActive - len(g.migQueue)
	if budget <= 0 {
		return
	}
	for _, app := range g.apps {
		if budget <= 0 {
			return
		}
		if app.state != appActive {
			continue // no new background migrations for draining/vacant slots
		}
		vpns := g.vmm.PagesToMigrate(app.ID, budget)
		if len(vpns) < budget {
			// Rebalance pages into newly gained (under-used) groups so the
			// app uses its additional bandwidth without waiting for faults.
			vpns = append(vpns, g.vmm.ImbalancePages(app.ID, budget-len(vpns))...)
		}
		for _, vpn := range vpns {
			k := migKey(app.ID, vpn)
			if g.migInFlight[k] {
				continue
			}
			g.migInFlight[k] = true
			g.stats.ScrubMigrations++
			g.migQueue = append(g.migQueue, migJobReq{app: app.ID, vpn: vpn})
			budget--
			if budget <= 0 {
				break
			}
		}
	}
	g.startQueuedMigrations(cycle)
}
