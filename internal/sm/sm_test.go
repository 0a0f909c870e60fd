package sm

import (
	"testing"

	"ugpu/internal/workload"
)

// fakePort accepts loads (optionally rejecting) and returns them after a
// fixed latency.
type fakePort struct {
	latency  uint64
	reject   bool
	accepted int
	inflight []struct {
		at uint64
		w  *Warp
	}
}

func (p *fakePort) IssueLoad(cycle uint64, smID, appID int, va uint64, w *Warp) bool {
	if p.reject {
		return false
	}
	p.accepted++
	p.inflight = append(p.inflight, struct {
		at uint64
		w  *Warp
	}{cycle + p.latency, w})
	return true
}

func (p *fakePort) tick(cycle uint64) {
	live := p.inflight[:0]
	for _, f := range p.inflight {
		if f.at <= cycle {
			f.w.LoadDone()
		} else {
			live = append(live, f)
		}
	}
	p.inflight = live
}

func newApp(t *testing.T, abbr string, id int) *App {
	t.Helper()
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return &App{ID: id, Dispatcher: workload.NewDispatcher(b, 16, 4096), PageBytes: 4096, SeedBase: 7}
}

func TestAssignFillsTBs(t *testing.T) {
	s := New(0, 8, 8, 2)
	s.Assign(0, newApp(t, "DXTC", 0))
	if s.State() != Active {
		t.Fatalf("state = %v, want active", s.State())
	}
	if got := s.ResidentWarps(); got != 64 {
		t.Errorf("resident warps = %d, want 64", got)
	}
	if s.AppID() != 0 {
		t.Errorf("AppID = %d, want 0", s.AppID())
	}
}

func TestComputeBoundIPCNearPeak(t *testing.T) {
	// DXTC issues almost no memory instructions: with an always-accepting
	// port, IPC should approach the 2-issue peak.
	s := New(0, 8, 8, 2)
	s.Assign(0, newApp(t, "DXTC", 0))
	p := &fakePort{latency: 10}
	const n = 20000
	for c := uint64(0); c < n; c++ {
		p.tick(c)
		s.Tick(c, p)
	}
	ipc := float64(s.Stats().Instructions) / float64(n)
	if ipc < 1.9 {
		t.Errorf("compute-bound IPC = %.2f, want >= 1.9", ipc)
	}
}

func TestMemoryBoundStallsWithSlowMemory(t *testing.T) {
	ipcAt := func(latency uint64) float64 {
		s := New(0, 8, 8, 2)
		s.Assign(0, newApp(t, "LAVAMD", 0))
		p := &fakePort{latency: latency}
		const n = 20000
		for c := uint64(0); c < n; c++ {
			p.tick(c)
			s.Tick(c, p)
			s.RetryBlocked(c, p)
		}
		return float64(s.Stats().Instructions) / float64(n)
	}
	// 64 warps x 12-deep MLP hide short latencies entirely; the latency
	// must exceed what that parallelism can cover before IPC collapses.
	fast, slow := ipcAt(5), ipcAt(20000)
	if slow >= fast*0.7 {
		t.Errorf("memory-bound IPC fast=%.2f slow=%.2f; long latency should hurt", fast, slow)
	}
}

func TestStructuralRejectDoesNotLoseAccesses(t *testing.T) {
	s := New(0, 1, 8, 2)
	s.Assign(0, newApp(t, "PVC", 0))
	p := &fakePort{latency: 5, reject: true}
	for c := uint64(0); c < 200; c++ {
		s.Tick(c, p)
		s.RetryBlocked(c, p)
	}
	memGenerated := s.Stats().MemInstrs
	if memGenerated == 0 {
		t.Fatal("no memory instructions generated")
	}
	// Now accept: every pending access must eventually issue.
	p.reject = false
	for c := uint64(200); c < 50000; c++ {
		p.tick(c)
		s.Tick(c, p)
		s.RetryBlocked(c, p)
	}
	if p.accepted == 0 {
		t.Error("pending loads never issued after the structural hazard cleared")
	}
}

func TestTBCompletionRefillsWhenActive(t *testing.T) {
	s := New(0, 2, 2, 2)
	app := newApp(t, "DXTC", 0)
	s.Assign(0, app)
	p := &fakePort{latency: 4}
	var c uint64
	for c = 0; s.Stats().TBsCompleted < 3 && c < 1_000_000; c++ {
		p.tick(c)
		s.Tick(c, p)
		s.RetryBlocked(c, p)
	}
	if s.Stats().TBsCompleted < 3 {
		t.Fatal("TBs never completed")
	}
	if s.ResidentWarps() == 0 {
		t.Error("active SM has no resident warps after TB completion")
	}
	if s.TBDurationEstimate() <= 0 {
		t.Error("TB duration estimate not updated")
	}
}

func TestDrainFreesSM(t *testing.T) {
	s := New(0, 2, 2, 2)
	s.Assign(0, newApp(t, "DXTC", 0))
	p := &fakePort{latency: 4}
	var freedAt uint64
	freed := false
	s.BeginDrain(0, func(c uint64, _ *SM) { freed = true; freedAt = c })
	for c := uint64(0); !freed && c < 2_000_000; c++ {
		p.tick(c)
		s.Tick(c, p)
		s.RetryBlocked(c, p)
	}
	if !freed {
		t.Fatal("drain never completed")
	}
	if s.State() != Idle {
		t.Errorf("state after drain = %v, want idle", s.State())
	}
	if freedAt == 0 {
		t.Error("drain completed instantly")
	}
	// Reassignment works after drain.
	s.Assign(freedAt, newApp(t, "PVC", 1))
	if s.AppID() != 1 || s.ResidentWarps() == 0 {
		t.Error("SM not reusable after drain")
	}
}

func TestSwitchFreesSMAtReadyTime(t *testing.T) {
	s := New(0, 2, 2, 2)
	s.Assign(0, newApp(t, "PVC", 0))
	p := &fakePort{latency: 4}
	freed := false
	var freedAt uint64
	s.BeginSwitch(10, 500, func(c uint64, _ *SM) { freed = true; freedAt = c })
	if s.State() != Switching {
		t.Fatalf("state = %v, want switching", s.State())
	}
	for c := uint64(10); c < 1000; c++ {
		s.Tick(c, p)
	}
	if !freed {
		t.Fatal("switch never completed")
	}
	if freedAt < 500 {
		t.Errorf("switch freed at %d, want >= 500", freedAt)
	}
	// No instructions issue while switching.
	if s.Stats().Instructions != 0 {
		t.Errorf("switching SM issued %d instructions", s.Stats().Instructions)
	}
}

func TestDrainOnIdleSMFiresImmediately(t *testing.T) {
	s := New(0, 2, 2, 2)
	fired := false
	s.BeginDrain(5, func(c uint64, _ *SM) { fired = true })
	if !fired {
		t.Error("drain callback on idle SM did not fire")
	}
}

func TestGTOPrefersCurrentWarp(t *testing.T) {
	// With an always-ready compute workload, the greedy policy should keep
	// issuing from one warp until it completes, rather than round-robin.
	s := New(0, 1, 4, 1)
	s.Assign(0, newApp(t, "CP", 0))
	p := &fakePort{latency: 1}
	first := s.warps[0]
	for c := uint64(0); c < 100; c++ {
		p.tick(c)
		s.Tick(c, p)
	}
	if first.Stream.Issued() < 50 {
		t.Errorf("greedy warp issued only %d of first 100 slots", first.Stream.Issued())
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New(0, 8, 8, 2)
	s.Assign(0, newApp(t, "LBM", 0))
	p := &fakePort{latency: 30}
	for c := uint64(0); c < 5000; c++ {
		p.tick(c)
		s.Tick(c, p)
		s.RetryBlocked(c, p)
	}
	st := s.Stats()
	if st.Instructions == 0 || st.MemInstrs == 0 || st.ActiveCycles != 5000 {
		t.Errorf("stats = %+v", st)
	}
	if st.MemInstrs >= st.Instructions {
		t.Error("memory instructions exceed total")
	}
	s.ResetStats()
	if s.Stats().Instructions != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

// fifoPort completes every load a fixed latency after issue. Completions
// leave in issue order, so a ring holds them without per-tick filtering.
type fifoPort struct {
	latency    uint64
	ring       []*Warp
	at         []uint64
	head, size int
}

func (p *fifoPort) IssueLoad(cycle uint64, _, _ int, _ uint64, w *Warp) bool {
	if p.size == len(p.ring) {
		return false // structural hazard: the load retries
	}
	i := (p.head + p.size) % len(p.ring)
	p.ring[i], p.at[i] = w, cycle+p.latency
	p.size++
	return true
}

func (p *fifoPort) tick(cycle uint64) {
	for p.size > 0 && p.at[p.head] <= cycle {
		w := p.ring[p.head]
		p.ring[p.head] = nil
		p.head = (p.head + 1) % len(p.ring)
		p.size--
		w.LoadDone()
	}
}

// BenchmarkTick prices one SM cycle of a memory-bound kernel (LBM on a full
// 64-warp SM behind a 300-cycle, 512-entry memory): warp selection, issue,
// load completion and structural retry. Steady state allocates nothing.
func BenchmarkTick(b *testing.B) {
	bench, err := workload.ByAbbr("LBM")
	if err != nil {
		b.Fatal(err)
	}
	s := New(0, 8, 8, 2)
	s.Assign(0, &App{ID: 0, Dispatcher: workload.NewDispatcher(bench, 16, 4096), PageBytes: 4096, SeedBase: 7})
	p := &fifoPort{latency: 300, ring: make([]*Warp, 512), at: make([]uint64, 512)}
	cycle := uint64(0)
	step := func() {
		p.tick(cycle)
		s.Tick(cycle, p)
		s.RetryBlocked(cycle, p)
		cycle++
	}
	for i := 0; i < 200_000; i++ {
		step() // warm the warp freelist and address buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestOrphanedLoadsLeaveSchedulerAlone is a regression test: loads that
// return after a context switch dropped their warps used to decrement the
// old SM's unready count (to -4 on an idle SM after a switch with four
// blocked warps) and, once the SM had a new tenant, made CanIssue report a
// ready warp where there was none. Completions on dropped warps must leave
// the SM's scheduler state and wake hook untouched.
func TestOrphanedLoadsLeaveSchedulerAlone(t *testing.T) {
	s := New(0, 8, 8, 2)
	s.Assign(0, newApp(t, "LBM", 0))
	p := &fakePort{latency: 1 << 30} // nothing returns before the switch
	for c := uint64(0); c < 2000; c++ {
		s.Tick(c, p)
		s.RetryBlocked(c, p)
	}
	if s.BlockedWarps() == 0 {
		t.Fatal("memory-bound warps never blocked")
	}
	wakes := 0
	s.Wake = func(*SM) { wakes++ }
	s.BeginSwitch(2000, 2100, nil)
	s.Tick(2100, p) // switch completes; the SM is idle
	if s.State() != Idle {
		t.Fatalf("state = %v, want idle", s.State())
	}
	half := len(p.inflight) / 2
	wakes = 0
	for _, f := range p.inflight[:half] {
		f.w.LoadDone()
	}
	if got := s.unready(); got != 0 || s.CanIssue() || wakes != 0 {
		t.Errorf("idle SM after orphaned loads: unready = %d, CanIssue = %v, wakes = %d; want 0, false, 0", got, s.CanIssue(), wakes)
	}

	// Reassign, block every new warp, then let the rest of the old
	// tenant's loads return.
	s.Assign(2101, newApp(t, "LBM", 1))
	q := &fakePort{latency: 1 << 30}
	for c := uint64(2101); s.CanIssue() && c < 100_000; c++ {
		s.Tick(c, q)
		s.RetryBlocked(c, q)
	}
	if s.CanIssue() {
		t.Fatal("new tenant's warps never all blocked")
	}
	wakes = 0
	for _, f := range p.inflight[half:] {
		f.w.LoadDone()
	}
	if s.CanIssue() || s.unready() != len(s.warps) || wakes != 0 {
		t.Errorf("after orphaned loads on a reassigned SM: CanIssue = %v, unready = %d of %d warps, wakes = %d; want false, all, 0",
			s.CanIssue(), s.unready(), len(s.warps), wakes)
	}
}
