package gpu

// Live tenant attach/detach for the online serving layer (ISSUE 3).
//
// The closed-world GPU of New() places a fixed tenant list once and runs it
// to completion. The serving layer instead changes a GPU's population
// mid-run: a departing tenant's slice is reclaimed (SMs released to the free
// pool immediately, pages freed once every in-flight access/translation/
// migration referencing the tenant has drained) and an arriving tenant is
// granted a slice carved by the epoch policy.
//
// Detach is two-phase, mirroring how fault recovery (faults.go) separates
// instant ownership repair from slow data evacuation:
//
//   - BeginDetach stops execution now: the tenant's SMs are released to the
//     free pool (their warps are orphaned exactly as a context switch
//     orphans them), the context-save traffic is injected, and the slot is
//     marked detaching. Pages and channel groups are retained so in-flight
//     loads, translations, and migrations still resolve against live state.
//   - FinishDetach runs at a later quiescent point: once nothing in the
//     machine references the tenant (the predicate below), its pages are
//     freed through vm.ReleaseSpace, its TLB entries shot down, and the slot
//     marked vacant for reuse.
//
// Freeing pages before quiescence would be a use-after-free: a parked replay
// or a completing page-table walk would resolve against an unmapped (or
// re-allocated) frame, which the content-tag checker turns into a panic.

import (
	"fmt"
	"sort"

	"ugpu/internal/tlb"
	"ugpu/internal/trace"
	"ugpu/internal/workload"

	smpkg "ugpu/internal/sm"
)

// seedTagMix keeps a reattached slot's address streams distinct from every
// previous occupant of the same slot: the serving layer passes the global
// job id as seedTag, and the multiplier (same odd constant New uses for
// closed-world apps) spreads consecutive tags across the seed space.
const seedTagMix = 0x7F4A7C15

// FreeSMs lists SMs available for granting: idle (unowned, not draining
// toward anyone) and not hard-failed, in ascending id order.
func (g *GPU) FreeSMs() []int {
	var out []int
	for i, s := range g.sms {
		if s.State() == smpkg.Idle && !g.failedSMs[i] {
			out = append(out, i)
		}
	}
	return out
}

// VacantSlots lists reusable application slots in ascending order.
func (g *GPU) VacantSlots() []int {
	var out []int
	for i, app := range g.apps {
		if app.state == appVacant {
			out = append(out, i)
		}
	}
	return out
}

// AttachApp admits a new tenant at a quiescent point (an epoch boundary):
// it claims the lowest vacant slot (or appends one up to MaxApps), builds a
// fresh dispatcher seeded by seedTag, maps the tenant's footprint eagerly
// onto spec.Groups, and assigns spec.SMs SMs from the free pool. It returns
// the slot id.
func (g *GPU) AttachApp(cycle uint64, spec AppSpec, seedTag uint64) (int, error) {
	if spec.SMs <= 0 {
		return -1, fmt.Errorf("gpu: attach needs at least one SM")
	}
	if len(spec.Groups) == 0 {
		return -1, fmt.Errorf("gpu: attach needs at least one channel group")
	}
	for _, gr := range spec.Groups {
		if gr < 0 || gr >= len(g.deadGroups) {
			return -1, fmt.Errorf("gpu: attach assigned invalid channel group %d", gr)
		}
		if g.deadGroups[gr] {
			return -1, fmt.Errorf("gpu: attach assigned dead channel group %d", gr)
		}
	}
	free := g.FreeSMs()
	if len(free) < spec.SMs {
		return -1, fmt.Errorf("gpu: attach wants %d SMs, only %d free", spec.SMs, len(free))
	}

	// Claim the lowest vacant slot; append a fresh one if none is vacant.
	id := -1
	for i, app := range g.apps {
		if app.state == appVacant {
			id = i
			break
		}
	}
	if id < 0 {
		if len(g.apps) >= MaxApps {
			return -1, fmt.Errorf("gpu: attach: all %d application slots busy", MaxApps)
		}
		id = len(g.apps)
		if sid := g.vmm.AddSpace(); sid != id {
			panic(fmt.Sprintf("gpu: attach: vm space id %d for app slot %d", sid, id))
		}
		g.apps = append(g.apps, &App{ID: id, state: appVacant})
	}

	groups := append([]int(nil), spec.Groups...)
	sort.Ints(groups)
	app := &App{
		ID:     id,
		Bench:  spec.Bench,
		Disp:   workload.NewDispatcher(spec.Bench, g.opt.FootprintScale, g.cfg.PageBytes),
		Groups: groups,
	}
	app.smApp = &smpkg.App{
		ID:         id,
		Dispatcher: app.Disp,
		PageBytes:  g.cfg.PageBytes,
		SeedBase:   uint64(g.cfg.Seed)<<16 + (seedTag+1)*seedTagMix,
	}
	// Epoch baselines: DRAM counters are cumulative per slot in the HBM, so
	// a reused slot must baseline against the previous occupant's total or
	// the first epoch would charge the newcomer for history.
	dramStats := g.hbm.AppStatsSnapshot(id)
	app.baseDRAM = dramStats.ReadLines + dramStats.WriteLines
	g.apps[id] = app

	g.vmm.SetGroups(id, groups)
	// Eager allocation, as at launch in New: the dataset is mapped up front
	// (the evaluation has no memory oversubscription).
	for vpn := uint64(0); vpn < app.Disp.FootprintPages(); vpn++ {
		g.vmm.HandleFault(id, vpn)
	}
	g.tr.Emit(trace.KAttach, cycle, int32(id), 0, int64(spec.SMs), int64(len(groups)), int64(seedTag))
	for _, smID := range free[:spec.SMs] {
		app.SMs = append(app.SMs, smID)
		// The idle SM's L1 may hold lines of frames recycled from a departed
		// tenant; start the new tenant cold.
		g.smL1[smID].InvalidateAll()
		g.sms[smID].Assign(cycle, app.smApp)
	}
	return id, nil
}

// BeginDetach starts removing a tenant: execution stops immediately (SMs are
// released to the free pool, orphaning their warps exactly as a context
// switch would) and the context-save traffic is injected, but pages and
// channel groups are retained until FinishDetach observes quiescence.
func (g *GPU) BeginDetach(cycle uint64, id int) error {
	if id < 0 || id >= len(g.apps) {
		return fmt.Errorf("gpu: detach of unknown app %d", id)
	}
	app := g.apps[id]
	if app.state != appActive {
		return fmt.Errorf("gpu: detach of app %d in state %d", id, app.state)
	}
	app.state = appDetaching
	g.tr.Emit(trace.KDetachBegin, cycle, int32(id), 0, 0, 0, 0)
	// Stop attracting migrations toward this tenant's groups.
	g.vmm.SetRebalancing(id, false)
	// The departing context is saved over the tenant's own channels.
	g.injectContextTraffic(cycle, app)
	for _, smID := range app.SMs {
		// Accesses parked on the SM's full L1 MSHR belong to warps that are
		// being discarded; drop them as failSM does. In-flight loads already
		// in the MSHR complete normally onto orphaned warps.
		g.replayQ[smID].reset()
		g.sms[smID].Release(cycle)
	}
	app.SMs = app.SMs[:0]
	return nil
}

// refsApp reports whether anything in flight still references the app:
// memory requests between NoC/LLC/DRAM, merged translations, page-table
// walks, queued or active migrations, parked replays, SMs still draining
// toward the slot, or SMs still draining *away* from it. While any of these
// hold, the tenant's pages must stay mapped.
func (g *GPU) refsApp(id int) bool {
	if g.memInFlight[id] != 0 {
		return true
	}
	app := g.apps[id]
	if len(app.SMs) != 0 || app.inbound != 0 {
		return true
	}
	// Bugfix (ISSUE 4): an SM draining away from this app (MoveSMs removed it
	// from app.SMs and charged it to the destination's inbound count) still
	// executes the app's resident warps until its TBs finish — it keeps
	// issuing the app's loads. The counters above all miss it: memInFlight
	// can be transiently zero between issues, and the SM belongs to *no*
	// app's list mid-drain. Freeing the tenant's pages under it is a
	// use-after-free (loads resolve against unmapped or re-allocated frames).
	for _, s := range g.sms {
		if s.AppID() == id && s.State() != smpkg.Idle {
			return true
		}
	}
	for key := range g.transPending {
		if tlb.AppOf(key) == id {
			return true
		}
	}
	for key := range g.migInFlight {
		if tlb.AppOf(key) == id {
			return true
		}
	}
	for _, job := range g.migQueue {
		if job.app == id {
			return true
		}
	}
	if g.walker.PendingTagged(func(arg uint64) bool { return tlb.AppOf(arg) == id }) != 0 {
		return true
	}
	for i := range g.replayQ {
		for _, r := range g.replayQ[i].entries() {
			if r.app == id {
				return true
			}
		}
	}
	return false
}

// FinishDetach completes a detach begun earlier if the tenant has quiesced:
// its pages are freed (frames recycled deterministically), its TLB entries
// shot down, and the slot marked vacant. It reports whether the detach
// completed; callers retry at later epoch boundaries while it returns false.
func (g *GPU) FinishDetach(cycle uint64, id int) bool {
	app := g.apps[id]
	if app.state != appDetaching {
		return app.state == appVacant
	}
	if g.refsApp(id) {
		return false
	}
	g.vmm.ReleaseSpace(id)
	// Shoot down every translation the departed tenant left behind; the slot
	// id will be reused and stale app-tagged entries would alias the next
	// occupant's pages.
	for i, t := range g.smL1TLB {
		t.InvalidateApp(id)
		g.sms[i].InvalidateTranslationFilters()
	}
	g.l2tlb.InvalidateApp(id)
	g.transVersion++
	app.Groups = app.Groups[:0]
	app.state = appVacant
	g.tr.Emit(trace.KDetachDone, cycle, int32(id), 0, 0, 0, 0)
	return true
}

// ShedSMs forcibly releases up to n of an active app's SMs back to the free
// pool with context-switch semantics: resident warps are orphaned (as
// BeginSwitch orphans them) and the context-save traffic is injected. The
// serving layer uses it to carve capacity for an arriving tenant when the
// free pool is empty; routine rebalancing between tenants goes through
// MoveSMs' drain path instead. At least one SM always remains. It returns
// the number of SMs shed.
func (g *GPU) ShedSMs(cycle uint64, id, n int) int {
	app := g.apps[id]
	if app.state != appActive || n <= 0 {
		return 0
	}
	if max := len(app.SMs) - 1; n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	g.injectContextTraffic(cycle, app)
	for _, smID := range app.SMs[len(app.SMs)-n:] {
		g.replayQ[smID].reset()
		g.sms[smID].Release(cycle)
	}
	app.SMs = app.SMs[:len(app.SMs)-n]
	return n
}

// GrantSMs gives an active app up to n SMs from the free pool (lowest ids
// first), returning how many were granted. The serving layer uses it to
// grow survivors into capacity freed by departures.
func (g *GPU) GrantSMs(cycle uint64, id, n int) int {
	app := g.apps[id]
	if app.state != appActive || n <= 0 {
		return 0
	}
	free := g.FreeSMs()
	if n > len(free) {
		n = len(free)
	}
	for _, smID := range free[:n] {
		app.SMs = append(app.SMs, smID)
		g.smL1[smID].InvalidateAll()
		g.sms[smID].Assign(cycle, app.smApp)
	}
	return n
}
