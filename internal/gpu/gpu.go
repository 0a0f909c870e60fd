// Package gpu assembles the full multitasking GPU: SMs with private L1
// caches and L1 TLBs, a crossbar NoC, LLC slices bound to memory channels,
// the HBM memory system with PageMove, a shared L2 TLB with page table
// walker, and the virtual memory manager.
//
// The package enforces GPU-slice isolation: each application owns a set of
// SMs and a set of memory channel groups; its pages (and therefore its LLC
// slices and DRAM bandwidth) are confined to those groups. Reallocation
// primitives (MoveSMs, SetGroups) implement Section 3.3's SM
// draining/switching and Section 4.4's memory-channel reallocation with
// fault-driven plus background page migration. Policies in internal/core
// drive these primitives at epoch boundaries.
package gpu

import (
	"fmt"

	"ugpu/internal/addr"
	"ugpu/internal/cache"
	"ugpu/internal/config"
	"ugpu/internal/digest"
	"ugpu/internal/dram"
	"ugpu/internal/fault"
	"ugpu/internal/noc"
	"ugpu/internal/power"
	"ugpu/internal/sm"
	"ugpu/internal/tlb"
	"ugpu/internal/trace"
	"ugpu/internal/vm"
	"ugpu/internal/workload"
)

// MaxApps bounds concurrently resident applications (the evaluation goes up
// to eight-program workloads).
const MaxApps = 8

// Options select policy-dependent mechanisms.
type Options struct {
	// MigrationMode is how pages are copied between channels: ModePPMM for
	// UGPU, ModeReadWrite for UGPU-Soft, ModeCrossStack for UGPU-Ori.
	MigrationMode dram.MigrationMode
	// OriReshuffle marks an app's whole footprint for migration whenever
	// its channel groups change (the traditional-mapping UGPU-Ori cost).
	OriReshuffle bool
	// DisableMigration freezes page placement: accesses to pages outside
	// the allowed groups proceed in place (used by MPS, where channels are
	// shared and pages never move).
	DisableMigration bool
	// CheckReads samples returned loads and validates page content tags
	// (1/256 loads); tests enable it.
	CheckReads bool
	// ScrubBatch bounds background migrations started per scrub interval.
	ScrubBatch int
	// FootprintScale divides Table 2 footprints (DESIGN.md scaling).
	FootprintScale int
	// Faults describes deterministic fault injection for this run; the zero
	// Spec injects nothing and builds no injector.
	Faults fault.Spec
	// FaultSeed seeds the fault injector's schedule and probabilistic
	// streams. 0 falls back to the config seed.
	FaultSeed int64
	// Trace receives structured events from every decision point (epoch,
	// migration lifecycle, faults, SM/tenant lifecycle, watchdog). nil
	// disables tracing at one-branch cost per emit point; tracing is
	// observation-only and never changes simulated results.
	Trace *trace.Tracer
	// NoFastForward disables the event-driven fast-forward engine
	// (fastforward.go) and restores the plain per-cycle loop over all SMs.
	// The zero value leaves fast-forward ON: skipping is a pure no-op
	// elision, so results are byte-identical either way; the escape hatch
	// exists for differential testing and perf comparison.
	NoFastForward bool
	// Power enables the DVFS/power-management subsystem (ISSUE 8): per-SM-
	// domain issue gating, per-channel burst stretching, and the per-state
	// energy meter. nil leaves every domain at nominal frequency with no
	// manager allocated.
	Power *power.Config
}

// DefaultOptions returns the UGPU-with-PageMove configuration: fault-driven
// migration only, as in the paper (set ScrubBatch > 0 to add the background
// scrubber extension).
func DefaultOptions() Options {
	return Options{
		MigrationMode:  dram.ModePPMM,
		FootprintScale: 16,
	}
}

// AppSpec describes one co-running application.
type AppSpec struct {
	Bench  workload.Benchmark
	SMs    int   // initial SM count
	Groups []int // initial channel groups
}

// appState tracks an application slot's lifecycle for the online serving
// layer (attach.go). Closed-world runs keep every app appActive forever.
type appState uint8

const (
	// appActive: normal execution.
	appActive appState = iota
	// appDetaching: BeginDetach ran — SMs released, dispatch stopped, but
	// pages and groups are retained until in-flight work quiesces.
	appDetaching
	// appVacant: FinishDetach ran — the slot owns nothing and can be reused
	// by AttachApp. The App object stays in place so stale in-flight
	// references (none, post-quiescence) never nil-deref.
	appVacant
)

// App is the runtime state of one application.
type App struct {
	ID    int
	Bench workload.Benchmark
	Disp  *workload.Dispatcher
	smApp *sm.App

	SMs     []int // owned SM ids (draining SMs stay with the old owner)
	inbound int   // SMs in flight toward this app (drain/switch pending)
	Groups  []int

	state appState

	// Cumulative counters.
	TotalInstr uint64

	// Epoch baselines (set by EndEpoch).
	baseLLCAcc uint64
	baseLLCHit uint64
	baseDRAM   uint64

	llcAcc uint64
	llcHit uint64
}

// Detaching reports whether the slot is draining toward vacancy.
func (a *App) Detaching() bool { return a.state == appDetaching }

// Vacant reports whether the slot is empty and reusable.
func (a *App) Vacant() bool { return a.state == appVacant }

// memReq is one in-flight L1 miss travelling through NoC, LLC, and DRAM.
// Requests are pooled: l1Fill releases each one back to the GPU's freelist
// when its round trip completes.
type memReq struct {
	app   int
	sm    int
	slice int // destination LLC slice (routes the tagged NoC callback)
	pa    uint64
	vpn   uint64
}

// llcSlice is one LLC slice with its MSHR and retry queues.
type llcSlice struct {
	cache  *cache.Cache
	mshr   *cache.MSHR
	parked []*memReq       // waiting for an MSHR entry
	toDram []*dram.Request // waiting for DRAM queue space
}

// EpochStats is one application's profile over the last epoch, the inputs
// to the demand-aware algorithm (Equations 1-2).
type EpochStats struct {
	App          int
	Cycles       uint64
	Instructions uint64
	LLCAccesses  uint64
	LLCHits      uint64
	DRAMLines    uint64
	SMs          int
	Groups       int
}

// APKI is LLC accesses per kilo (warp) instruction.
func (e EpochStats) APKI() float64 {
	if e.Instructions == 0 {
		return 0
	}
	return float64(e.LLCAccesses) * 1000 / float64(e.Instructions)
}

// HitRate is the LLC hit rate.
func (e EpochStats) HitRate() float64 {
	if e.LLCAccesses == 0 {
		return 0
	}
	return float64(e.LLCHits) / float64(e.LLCAccesses)
}

// IPC is instructions per cycle over the epoch.
func (e EpochStats) IPC() float64 {
	if e.Cycles == 0 {
		return 0
	}
	return float64(e.Instructions) / float64(e.Cycles)
}

// GPU is the simulated device.
type GPU struct {
	cfg    config.Config
	opt    Options
	mapper *addr.CustomMapper
	tr     *trace.Tracer // nil = tracing disabled

	sms     []*sm.SM
	smL1    []*cache.Cache
	smMSHR  []*cache.MSHR
	smL1TLB []*tlb.TLB
	smBase  []uint64 // per-SM instruction baseline for epoch attribution

	l2tlb  *tlb.TLB
	walker *tlb.Walker

	reqNet *noc.Crossbar
	rspNet *noc.Crossbar

	slices []*llcSlice
	hbm    *dram.HBM
	vmm    *vm.Manager

	apps []*App

	cycle      uint64
	epochStart uint64
	wheel      wheel

	// Merged in-flight translations: key -> accesses awaiting the result.
	transPending map[uint64][]migWaiter
	replayQ      []replayFIFO // per SM: accesses parked on a full L1 MSHR

	// memInFlight counts per-app memReqs between sendToLLC and l1Fill; the
	// detach quiescence check (attach.go) requires it to reach zero before a
	// departing tenant's pages are freed.
	memInFlight [MaxApps]int

	// Object pools and persistent callbacks for the allocation-free memory
	// path: memReqs and dram.Requests are recycled, and the NoC/DRAM
	// callbacks are allocated once here instead of per message.
	freeReqs     []*memReq
	freeDramReqs []*dram.Request
	freeWaiters  [][]migWaiter // recycled transPending waiter slices
	onLLCArrive  func(at uint64, arg any)
	onSMReply    func(at uint64, arg any)
	dramDone     func(finish uint64, r *dram.Request)
	ctxDone      func(finish uint64, r *dram.Request)
	onWalkDone   func(cycle uint64, key uint64)

	// parkedTotal/toDramTotal count requests parked across all LLC slices so
	// retrySlices can skip its scan when nothing is waiting.
	parkedTotal int
	toDramTotal int

	// Migration orchestration.
	migInFlight map[uint64]bool
	migQueue    []migJobReq
	migActive   int
	reconfigSMs int

	// Fault injection and degraded-mode state (see faults.go).
	inj             *fault.Injector
	failedSMs       []bool
	deadGroups      []bool
	pendingMoveTo   map[int]*App // SM id -> destination app while drain/switch is in flight
	faultStats      FaultTotals
	firstFaultCycle uint64 // 0 = no discrete fault delivered yet

	// Watchdog bookkeeping (see watchdog.go).
	lastFingerprint uint64
	lastProgressAt  uint64

	// testBlackhole (tests only) suppresses load completion so warps wedge
	// at their outstanding-load bound — an injected livelock for watchdog
	// tests.
	testBlackhole bool

	// Per-epoch reallocation-overhead accounting (Figure 12a).
	dataMigCycles uint64
	smMigCycles   uint64

	// Fast-forward engine state (see fastforward.go). activeSM is the dense,
	// ascending id list of SMs the tick loop must visit; parked SMs owe
	// lazily-settled stall statistics from smParkedAt onward.
	activeSM       []int32
	smInSet        []bool
	smParked       []bool
	smParkedAt     []uint64
	switchingInSet int
	smPhase        bool
	pendingWakes   []int32
	ffStats        FastForwardStats

	// Reused EndEpoch output buffers (alloc-free epoch boundaries).
	epochDeltas []uint64
	epochOut    []EpochStats

	// Correctness sampling.
	checkTick uint64

	// Power management (ISSUE 8): nil when Options.Power is unset.
	pm *power.Manager

	// State-digest support (digest.go): component labels and waiter-hash
	// callbacks are cached here so per-epoch digesting allocates nothing
	// after the first call. digestGen numbers snapshots for the warps'
	// per-snapshot hash memo (sm.Warp.DigestOnce).
	digestSMNames    []string
	digestSliceNames []string
	hashWarpFn       func(any) digest.Hash
	hashMemReqFn     func(any) digest.Hash
	digestGen        uint64

	// transVersion invalidates per-warp translation filters on any page
	// migration or channel reallocation.
	transVersion uint64

	pageShift uint
	lineShift uint

	stats Totals
}

// Totals aggregates whole-run counters.
type Totals struct {
	Loads               uint64
	L1Hits              uint64
	TLBL1Hits           uint64
	FaultMigrations     uint64 // blocking (mandatory) fault-driven migrations
	RebalanceMigrations uint64 // non-blocking inbound rebalance migrations
	ScrubMigrations     uint64 // background scrubber migrations (extension)
	ChecksSampled       uint64
}

// FaultTotals aggregates GPU-side degraded-mode counters (the injector
// itself tallies raw fault deliveries; these count the recovery work).
type FaultTotals struct {
	EmergencyMigrations uint64 // pages evacuated off dying channel groups
	MigFailures         uint64 // migration jobs that exhausted NACK retries
	MigRetries          uint64 // failed jobs re-queued with backoff
	SpillRemaps         uint64 // jobs spilled to the slow-path driver remap
}

type migWaiter struct {
	sm  int
	va  uint64
	w   *sm.Warp
	app int
}

// replayReq is a post-translation access parked on a full L1 MSHR.
type replayReq struct {
	app int
	pa  uint64
	vpn uint64
	w   *sm.Warp
}

// replayFIFO is one SM's queue of parked accesses, consumed from a head
// index so a drain costs no shift-down copy. Consumed slots are zeroed (the
// queue must not keep departed warps alive), and the live tail slides back
// to the front only when an append would otherwise grow the backing array.
type replayFIFO struct {
	q    []replayReq
	head int
}

func (f *replayFIFO) len() int { return len(f.q) - f.head }

// entries returns the parked accesses, oldest first.
func (f *replayFIFO) entries() []replayReq { return f.q[f.head:] }

func (f *replayFIFO) push(r replayReq) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, r)
}

func (f *replayFIFO) pop() replayReq {
	r := f.q[f.head]
	f.q[f.head] = replayReq{}
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return r
}

// reset drops every parked access.
func (f *replayFIFO) reset() {
	clear(f.q)
	f.q, f.head = f.q[:0], 0
}

// migJobReq is a queued page-migration request at the driver. attempts
// counts failed hardware-copy attempts (NACK-exhausted jobs re-queue with
// exponential backoff before spilling to a slow-path remap).
type migJobReq struct {
	app      int
	vpn      uint64
	attempts uint8
}

func log2of(v int) uint {
	s := uint(0)
	for 1<<s < v {
		s++
	}
	return s
}

// New builds a GPU with the given co-running applications. The specs' SM
// counts must sum to at most cfg.NumSMs and their group sets must be
// disjoint unless sharing is intended (MPS shares all groups).
func New(cfg config.Config, specs []AppSpec, opt Options) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) > MaxApps {
		return nil, fmt.Errorf("gpu: %d applications, want 0..%d", len(specs), MaxApps)
	}
	if opt.FootprintScale <= 0 {
		opt.FootprintScale = 16
	}
	total := 0
	for _, s := range specs {
		total += s.SMs
		if s.SMs <= 0 {
			return nil, fmt.Errorf("gpu: app needs at least one SM")
		}
		if len(s.Groups) == 0 {
			return nil, fmt.Errorf("gpu: app needs at least one channel group")
		}
	}
	if total > cfg.NumSMs {
		return nil, fmt.Errorf("gpu: %d SMs requested, only %d exist", total, cfg.NumSMs)
	}

	mapper := addr.NewCustomMapper(cfg)
	g := &GPU{
		cfg:           cfg,
		opt:           opt,
		mapper:        mapper,
		tr:            opt.Trace,
		sms:           make([]*sm.SM, cfg.NumSMs),
		smL1:          make([]*cache.Cache, cfg.NumSMs),
		smMSHR:        make([]*cache.MSHR, cfg.NumSMs),
		smL1TLB:       make([]*tlb.TLB, cfg.NumSMs),
		smBase:        make([]uint64, cfg.NumSMs),
		l2tlb:         tlb.New(cfg.L2TLBEntries/cfg.L2TLBWays, cfg.L2TLBWays),
		walker:        tlb.NewWalker(cfg.PTWThreads, cfg.PTWLevels, cfg.PTWStepLatency),
		reqNet:        noc.New(cfg.NumSMs, cfg.LLCSlices, cfg.NoCLinkBytes, cfg.NoCLatency),
		rspNet:        noc.New(cfg.LLCSlices, cfg.NumSMs, cfg.NoCLinkBytes, cfg.NoCLatency),
		slices:        make([]*llcSlice, cfg.LLCSlices),
		hbm:           dram.New(cfg, MaxApps),
		vmm:           vm.NewManager(cfg, mapper, len(specs)),
		transPending:  make(map[uint64][]migWaiter),
		replayQ:       make([]replayFIFO, cfg.NumSMs),
		migInFlight:   make(map[uint64]bool),
		failedSMs:     make([]bool, cfg.NumSMs),
		deadGroups:    make([]bool, cfg.ChannelGroups()),
		pendingMoveTo: make(map[int]*App),
		pageShift:     log2of(cfg.PageBytes),
		lineShift:     log2of(cfg.L1LineBytes),
	}
	g.wheel.g = g
	if !opt.Faults.Empty() {
		seed := opt.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		g.inj = fault.NewInjector(seed, opt.Faults, fault.Geometry{
			NumSMs:        cfg.NumSMs,
			NumGroups:     cfg.ChannelGroups(),
			NumChannels:   cfg.NumChannels(),
			BankGroups:    cfg.BankGroups,
			BanksPerGroup: cfg.BanksPerGroup,
			Horizon:       uint64(cfg.MaxCycles),
		})
		g.inj.Trace = g.tr
		g.hbm.MigNACK = g.inj.NACKMigration
		if opt.Faults.NoCDrop > 0 {
			drop := func(src, dst int) bool { return g.inj.DropMessage() }
			g.reqNet.Drop = drop
			g.rspNet.Drop = drop
		}
	}
	g.onLLCArrive = func(at uint64, arg any) {
		req := arg.(*memReq)
		g.llcArrive(at, req.slice, req)
	}
	g.onSMReply = func(at uint64, arg any) {
		g.l1Fill(at, arg.(*memReq))
	}
	g.dramDone = func(finish uint64, r *dram.Request) {
		g.wheel.scheduleEvent(g.cycle, wheelEvent{at: finish, kind: evDramFill, idx: r.Tag, pa: r.Addr})
		g.releaseDramReq(r)
	}
	g.ctxDone = func(_ uint64, r *dram.Request) { g.releaseDramReq(r) }
	g.onWalkDone = func(done uint64, key uint64) {
		g.walkDone(done, tlb.AppOf(key), key>>4)
	}
	g.hbm.Trace = g.tr
	if opt.Power != nil {
		pm, err := power.NewManager(cfg.NumSMs, cfg.NumChannels(), *opt.Power, g.tr)
		if err != nil {
			return nil, err
		}
		pm.SetHooks(power.Hooks{
			SMActive: func(dom int) uint64 {
				g.settleParked()
				var t uint64
				for i := range g.sms {
					if pm.SMDomainOf(i) == dom {
						t += g.sms[i].Stats().ActiveCycles
					}
				}
				return t
			},
			Channel: func(ch int) (uint64, uint64) {
				st := g.hbm.ChannelStatsSnapshot(ch)
				return st.Reads + st.Writes, st.Activates
			},
			ChannelState: func(ch, num, den int, until uint64) {
				g.hbm.SetChannelFreq(ch, num, den)
				g.hbm.ReserveBus(ch, until)
			},
		})
		g.pm = pm
	}
	var wake func(*sm.SM)
	if !opt.NoFastForward {
		g.smInSet = make([]bool, cfg.NumSMs)
		g.smParked = make([]bool, cfg.NumSMs)
		g.smParkedAt = make([]uint64, cfg.NumSMs)
		g.activeSM = make([]int32, 0, cfg.NumSMs)
		wake = g.onSMWake
	}
	for i := range g.sms {
		g.sms[i] = sm.New(i, cfg.TBsPerSM(), cfg.WarpsPerTB, cfg.SchedulersPerSM)
		g.sms[i].Trace = g.tr
		g.sms[i].Wake = wake
		g.smL1[i] = cache.New(cfg.L1Sets, cfg.L1Ways, cfg.L1LineBytes)
		g.smMSHR[i] = cache.NewMSHR(cfg.L1MSHRs, 0)
		g.smL1TLB[i] = tlb.NewFullyAssociative(cfg.L1TLBEntries)
	}
	for i := range g.slices {
		g.slices[i] = &llcSlice{
			cache: cache.New(cfg.LLCSets, cfg.LLCWays, cfg.L1LineBytes),
			mshr:  cache.NewMSHR(cfg.QueueEntries, 0),
		}
	}

	nextSM := 0
	for id, spec := range specs {
		app := &App{
			ID:     id,
			Bench:  spec.Bench,
			Disp:   workload.NewDispatcher(spec.Bench, opt.FootprintScale, cfg.PageBytes),
			Groups: append([]int(nil), spec.Groups...),
		}
		app.smApp = &sm.App{
			ID:         id,
			Dispatcher: app.Disp,
			PageBytes:  cfg.PageBytes,
			SeedBase:   uint64(cfg.Seed)<<16 + uint64(id+1)*0x7F4A7C15,
		}
		g.vmm.SetGroups(id, spec.Groups)
		// Eager allocation: datasets are mapped at launch; far faults are
		// out of scope (the evaluation has no memory oversubscription).
		for vpn := uint64(0); vpn < app.Disp.FootprintPages(); vpn++ {
			g.vmm.HandleFault(id, vpn)
		}
		for i := 0; i < spec.SMs; i++ {
			app.SMs = append(app.SMs, nextSM)
			g.sms[nextSM].Assign(0, app.smApp)
			nextSM++
		}
		g.apps = append(g.apps, app)
	}
	return g, nil
}

// Config returns the GPU configuration.
func (g *GPU) Config() config.Config { return g.cfg }

// Apps returns the runtime application states.
func (g *GPU) Apps() []*App { return g.apps }

// VM returns the virtual memory manager (read-only use by tests/policies).
func (g *GPU) VM() *vm.Manager { return g.vmm }

// HBM returns the memory system (read-only use by metrics).
func (g *GPU) HBM() *dram.HBM { return g.hbm }

// SM returns one SM (tests).
func (g *GPU) SM(i int) *sm.SM { return g.sms[i] }

// Cycle reports the current simulation cycle.
func (g *GPU) Cycle() uint64 { return g.cycle }

// Tracer returns the structured-event tracer (nil when tracing is disabled;
// the nil tracer is safe to emit on).
func (g *GPU) Tracer() *trace.Tracer { return g.tr }

// Totals returns whole-run aggregate counters.
func (g *GPU) Totals() Totals { return g.stats }

// Run advances the simulation by n cycles.
func (g *GPU) Run(n uint64) {
	g.runSpan(g.cycle + n)
}

// RunUntil advances to the given absolute cycle.
func (g *GPU) RunUntil(cycle uint64) {
	g.runSpan(cycle)
}

func (g *GPU) tick() {
	c := g.cycle
	if g.inj.Armed(c) {
		g.applyFaults(c)
	}
	g.wheel.run(c)
	g.reqNet.Tick(c)
	g.walker.Tick(c)
	g.retrySlices(c)
	g.hbm.Tick(c)
	g.rspNet.Tick(c)
	if g.opt.NoFastForward {
		if g.pm != nil && !g.pm.SMAllNominal() {
			for _, s := range g.sms {
				// DVFS issue gate: a throttled domain's Active/Draining SMs
				// simply do not tick on gated cycles (their clock is not
				// running). Switching SMs tick regardless — the context-switch
				// engine completes on its own schedule.
				if st := s.State(); (st == sm.Active || st == sm.Draining) && !g.pm.SMOpen(s.ID, c) {
					continue
				}
				s.Tick(c, g)
				s.RetryBlocked(c, g)
			}
		} else {
			for _, s := range g.sms {
				s.Tick(c, g)
				s.RetryBlocked(c, g)
			}
		}
	} else {
		g.tickSMs(c)
	}
	if c&63 == 0 {
		g.scrub(c)
	}
	if g.migActive > 0 || len(g.migQueue) > 0 || g.hbm.PendingMigrations() > 0 {
		g.dataMigCycles++
	}
	if g.reconfigSMs > 0 {
		g.smMigCycles++
	}
	g.cycle = c + 1
}

// EndEpoch snapshots per-application profile counters since the previous
// call and resets the baselines. Policies call it at epoch boundaries.
//
// The returned slice is a reused buffer, valid until the next EndEpoch call;
// callers that retain epoch stats across boundaries must copy the values.
func (g *GPU) EndEpoch() []EpochStats {
	cycles := g.cycle - g.epochStart
	g.epochStart = g.cycle
	g.settleParked()

	// Attribute SM instruction deltas to the SM's current owner.
	if cap(g.epochDeltas) < len(g.apps) {
		g.epochDeltas = make([]uint64, len(g.apps))
	}
	deltas := g.epochDeltas[:len(g.apps)]
	for i := range deltas {
		deltas[i] = 0
	}
	for i, s := range g.sms {
		cur := s.Stats().Instructions
		d := cur - g.smBase[i]
		g.smBase[i] = cur
		if id := s.AppID(); id >= 0 && id < len(deltas) {
			deltas[id] += d
		}
	}
	if cap(g.epochOut) < len(g.apps) {
		g.epochOut = make([]EpochStats, len(g.apps))
	}
	out := g.epochOut[:len(g.apps)]
	for i, app := range g.apps {
		app.TotalInstr += deltas[i]
		dramStats := g.hbm.AppStatsSnapshot(app.ID)
		dramLines := dramStats.ReadLines + dramStats.WriteLines
		out[i] = EpochStats{
			App:          app.ID,
			Cycles:       cycles,
			Instructions: deltas[i],
			LLCAccesses:  app.llcAcc - app.baseLLCAcc,
			LLCHits:      app.llcHit - app.baseLLCHit,
			DRAMLines:    dramLines - app.baseDRAM,
			SMs:          len(app.SMs),
			Groups:       len(app.Groups),
		}
		app.baseLLCAcc = app.llcAcc
		app.baseLLCHit = app.llcHit
		app.baseDRAM = dramLines
	}
	return out
}

// ReallocationOverhead reports cycles spent with data migration and SM
// reconfiguration in flight since the last call (Figure 12a), then resets.
func (g *GPU) ReallocationOverhead() (dataMig, smMig uint64) {
	dataMig, smMig = g.dataMigCycles, g.smMigCycles
	g.dataMigCycles, g.smMigCycles = 0, 0
	return dataMig, smMig
}

// DebugTranslation reports L2 TLB stats and PTW activity (diagnostics).
func (g *GPU) DebugTranslation() (l2 tlb.Stats, walks uint64, ptwPending int) {
	return g.l2tlb.Stats(), g.walker.Walks, g.walker.Pending()
}

// Inbound reports SMs still in flight toward this app (drain/switch).
func (a *App) Inbound() int { return a.inbound }

// MemInFlight reports the app's memReqs between sendToLLC and l1Fill.
func (g *GPU) MemInFlight(app int) int { return g.memInFlight[app] }

// SMActiveCycles sums active cycles over all SMs (energy accounting).
func (g *GPU) SMActiveCycles() uint64 {
	g.settleParked()
	var t uint64
	for _, s := range g.sms {
		t += s.Stats().ActiveCycles
	}
	return t
}

// PowerManager returns the DVFS manager, or nil when Options.Power is unset.
func (g *GPU) PowerManager() *power.Manager { return g.pm }

// PowerReport finalizes the DVFS energy attribution at the current cycle and
// returns the per-state-scaled breakdown (zero when no manager exists).
// Migration transfer energy is attributed from the HBM migration counter.
func (g *GPU) PowerReport() power.Breakdown {
	if g.pm == nil {
		return power.Breakdown{}
	}
	return g.pm.Report(g.cycle, g.hbm.TotalStats().Migrations)
}

// AppendPowerDomains appends the SM frequency domains and global channels
// slot's current allocation touches (deduplicated, deterministic order) —
// the governor's per-slice domain view.
func (g *GPU) AppendPowerDomains(slot int, smDoms, chs []int) ([]int, []int) {
	if g.pm == nil || slot >= len(g.apps) {
		return smDoms, chs
	}
	app := g.apps[slot]
	nDom := g.pm.NumSMDomains()
	seen := make([]bool, nDom)
	for _, id := range app.SMs {
		if d := g.pm.SMDomainOf(id); !seen[d] {
			seen[d] = true
		}
	}
	for d := 0; d < nDom; d++ {
		if seen[d] {
			smDoms = append(smDoms, d)
		}
	}
	for _, grp := range app.Groups {
		for s := 0; s < g.cfg.NumStacks; s++ {
			chs = append(chs, s*g.cfg.ChannelsPerStack+grp)
		}
	}
	return smDoms, chs
}
