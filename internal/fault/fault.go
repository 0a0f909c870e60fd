// Package fault provides a seeded, fully deterministic fault injector for
// the UGPU simulator.
//
// The injector is constructed once per simulation from a (seed, Spec,
// Geometry) triple and produces two kinds of faults:
//
//   - A fixed schedule of discrete events (SM hard-fails, channel-group
//     fails, transient DRAM bank faults), planned up front and sorted by
//     cycle. The GPU polls the schedule from its tick loop via Armed/PopDue.
//   - Two independent probabilistic streams (NoC packet drops, MIGRATION
//     command NACKs) sampled through DropMessage/NACKMigration. Each stream
//     owns a private splitmix64 state, so the answer sequence depends only
//     on the seed and the order of calls on that stream — never on the
//     other stream, the Go global RNG, or scheduling of sibling
//     simulations.
//
// Determinism contract: two injectors built with identical arguments
// return identical schedules and identical stream sequences. Nothing in
// this package reads wall-clock time, global RNG state, or map iteration
// order.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ugpu/internal/trace"
)

// Kind enumerates the fault taxonomy.
type Kind uint8

const (
	// SMFail permanently removes one SM from the machine.
	SMFail Kind = iota
	// GroupFail permanently kills one memory channel group (one channel
	// index across every stack): queued traffic drains at a degraded rate,
	// no new pages may be placed there, and resident pages must be
	// emergency-migrated off.
	GroupFail
	// BankFault is a transient DRAM bank fault: the bank's open row is
	// lost and the bank is unavailable for Duration cycles.
	BankFault
	// NoCDrop marks a dropped interconnect packet (probabilistic stream;
	// never appears in the planned schedule).
	NoCDrop
	// MigrationNACK marks a NACKed PageMove MIGRATION command
	// (probabilistic stream; never appears in the planned schedule).
	MigrationNACK
)

// String returns the short human name of the fault kind.
func (k Kind) String() string {
	switch k {
	case SMFail:
		return "sm-fail"
	case GroupFail:
		return "group-fail"
	case BankFault:
		return "bank-fault"
	case NoCDrop:
		return "noc-drop"
	case MigrationNACK:
		return "mig-nack"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Event is one scheduled discrete fault.
type Event struct {
	Cycle    uint64 // simulation cycle at which the fault strikes
	Kind     Kind
	Unit     int    // SM id, channel-group id, or global channel id (BankFault)
	Aux      int    // BankFault: bank index within the channel; otherwise 0
	Duration uint64 // BankFault: unavailability window in cycles; otherwise 0
}

// Spec describes how many faults of each kind to inject over a run.
// The zero Spec injects nothing.
type Spec struct {
	SMs     int     // permanent SM hard-fails
	Groups  int     // permanent channel-group fails
	Banks   int     // transient DRAM bank faults
	NoCDrop float64 // per-message drop probability in [0,1)
	MigNACK float64 // per-migration-line NACK probability in [0,1)
}

// Empty reports whether the spec injects no faults at all.
func (s Spec) Empty() bool {
	return s.SMs == 0 && s.Groups == 0 && s.Banks == 0 && s.NoCDrop == 0 && s.MigNACK == 0
}

// String renders the spec in ParseSpec's format.
func (s Spec) String() string {
	parts := []string{}
	if s.SMs > 0 {
		parts = append(parts, fmt.Sprintf("sm=%d", s.SMs))
	}
	if s.Groups > 0 {
		parts = append(parts, fmt.Sprintf("group=%d", s.Groups))
	}
	if s.Banks > 0 {
		parts = append(parts, fmt.Sprintf("bank=%d", s.Banks))
	}
	if s.NoCDrop > 0 {
		parts = append(parts, fmt.Sprintf("noc=%g", s.NoCDrop))
	}
	if s.MigNACK > 0 {
		parts = append(parts, fmt.Sprintf("mig=%g", s.MigNACK))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// specGrammar is the accepted ParseSpec grammar, quoted by every parse
// error so a bad flag value explains how to fix itself.
const specGrammar = `grammar: "sm=N,group=N,bank=N,noc=P,mig=P" — N a non-negative integer, P a probability in [0,1); keys optional, "none" or "" for no faults`

// ParseSpec parses a fault spec of the form
//
//	"sm=2,group=1,bank=4,noc=0.001,mig=0.05"
//
// Every key is optional; "none" and "" parse to the empty Spec. Unknown
// keys, malformed values, negative counts, and probabilities outside
// [0,1) are errors; every error names the offending field and restates the
// accepted grammar.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	err := parseKV(s, "fault spec", specGrammar, func(key, val string) error {
		switch key {
		case "sm", "group", "bank":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("fault spec: field %s has value %q, want a non-negative integer count (%s)", key, val, specGrammar)
			}
			switch key {
			case "sm":
				spec.SMs = n
			case "group":
				spec.Groups = n
			case "bank":
				spec.Banks = n
			}
		case "noc", "mig":
			p, err := strconv.ParseFloat(val, 64)
			// p != p rejects NaN, which sails through the range comparisons
			// (both are false for NaN) and would poison every later
			// threshold test in the sampler.
			if err != nil || p != p || p < 0 || p >= 1 {
				return fmt.Errorf("fault spec: field %s has value %q, want a probability in [0,1) (%s)", key, val, specGrammar)
			}
			if key == "noc" {
				spec.NoCDrop = p
			} else {
				spec.MigNACK = p
			}
		default:
			return fmt.Errorf("fault spec: unknown field %q, accepted fields are sm, group, bank, noc, mig (%s)", key, specGrammar)
		}
		return nil
	})
	if err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseKV is the tokenizer both spec grammars share: it splits s on commas,
// skips empty tokens, and hands each trimmed key=value pair to set in
// order. "" and "none" hold no pairs. what names the grammar in the error
// for a token without '=', which quotes grammar; set's errors pass through.
func parseKV(s, what, grammar string, set func(key, val string) error) error {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("%s: token %q is not key=value (%s)", what, tok, grammar)
		}
		if err := set(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
			return err
		}
	}
	return nil
}

// Geometry gives the injector the machine shape it plans over.
type Geometry struct {
	NumSMs        int
	NumGroups     int    // channel groups (channels per stack)
	NumChannels   int    // global channels (stacks * channels per stack)
	BankGroups    int    // DRAM bank groups per channel
	BanksPerGroup int    // banks per bank group
	Horizon       uint64 // planned run length in cycles
}

// Counts tallies every fault the injector has actually delivered.
type Counts struct {
	SMFails    int
	GroupFails int
	BankFaults int
	NoCDrops   uint64
	MigNACKs   uint64
}

// splitmix64 is the same tiny generator the workload package uses for
// deterministic stream splitting; one state per probabilistic stream.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64v returns a uniform float64 in [0,1).
func (s *splitmix64) float64v() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0,n). n must be > 0.
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// Injector holds the planned schedule and the probabilistic streams for
// one simulation. Not safe for concurrent use; each simulation owns one.
type Injector struct {
	plan []Event // sorted by (Cycle, Kind, Unit, Aux); consumed front to back
	next int     // index of the next undelivered planned event

	dropP   float64
	nackP   float64
	dropRng splitmix64
	nackRng splitmix64

	counts Counts

	// Trace tallies NoC drops (counter-only: the drop stream has no cycle
	// context). nil disables. Discrete fault deliveries are traced by the
	// GPU, which knows the delivery cycle.
	Trace *trace.Tracer
}

// NewInjector plans a deterministic fault schedule from (seed, spec, geo).
//
// Planning rules:
//   - SM fails target distinct SMs and are clamped so at least two SMs
//     survive (a machine with <2 SMs cannot host the two-app experiments).
//   - Group fails target distinct groups and are clamped so at least one
//     group survives.
//   - Bank faults pick a uniform (channel, bank) each and last 2000–10000
//     cycles.
//   - All discrete events land in the middle 60% of the horizon
//     (20%..80%), spread evenly with seeded jitter, so every fault has
//     warm-up before it and observable aftermath behind it.
func NewInjector(seed int64, spec Spec, geo Geometry) *Injector {
	inj := &Injector{
		dropP:   spec.NoCDrop,
		nackP:   spec.MigNACK,
		dropRng: splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03),
		nackRng: splitmix64(uint64(seed)*0xbf58476d1ce4e5b9 + 0x2545f4914f6cdd1d),
	}
	planRng := splitmix64(uint64(seed) + 0x9e3779b97f4a7c15)

	nSM := spec.SMs
	if max := geo.NumSMs - 2; nSM > max {
		nSM = max
	}
	if nSM < 0 {
		nSM = 0
	}
	nGrp := spec.Groups
	if max := geo.NumGroups - 1; nGrp > max {
		nGrp = max
	}
	if nGrp < 0 {
		nGrp = 0
	}
	nBank := spec.Banks
	if geo.NumChannels <= 0 || geo.BankGroups*geo.BanksPerGroup <= 0 {
		nBank = 0
	}

	total := nSM + nGrp + nBank
	if total > 0 {
		slots := newMiddleBand(geo.Horizon).spread(total, 0)
		smPick := pickDistinct(&planRng, geo.NumSMs, nSM)
		grpPick := pickDistinct(&planRng, geo.NumGroups, nGrp)
		idx := 0
		for _, smID := range smPick {
			inj.plan = append(inj.plan, Event{Cycle: slots.at(&planRng, idx), Kind: SMFail, Unit: smID})
			idx++
		}
		for _, g := range grpPick {
			inj.plan = append(inj.plan, Event{Cycle: slots.at(&planRng, idx), Kind: GroupFail, Unit: g})
			idx++
		}
		banksPerCh := geo.BankGroups * geo.BanksPerGroup
		for i := 0; i < nBank; i++ {
			ch := planRng.intn(geo.NumChannels)
			bank := planRng.intn(banksPerCh)
			dur := 2000 + planRng.next()%8001
			inj.plan = append(inj.plan, Event{Cycle: slots.at(&planRng, idx), Kind: BankFault, Unit: ch, Aux: bank, Duration: dur})
			idx++
		}
		sort.Slice(inj.plan, func(a, b int) bool {
			ea, eb := inj.plan[a], inj.plan[b]
			if ea.Cycle != eb.Cycle {
				return ea.Cycle < eb.Cycle
			}
			if ea.Kind != eb.Kind {
				return ea.Kind < eb.Kind
			}
			if ea.Unit != eb.Unit {
				return ea.Unit < eb.Unit
			}
			return ea.Aux < eb.Aux
		})
	}
	return inj
}

// middleBand is where every planner places its events: the middle 60% of
// the horizon (20%..80%), so each event has warm-up before it and
// observable aftermath behind it. Horizons under 100 cycles plan as 100.
type middleBand struct {
	horizon, lo, hi uint64
}

func newMiddleBand(horizon uint64) middleBand {
	if horizon < 100 {
		horizon = 100
	}
	return middleBand{horizon: horizon, lo: horizon / 5, hi: horizon * 4 / 5}
}

// spread spaces n event starts evenly across the band, leaving tail cycles
// free at its end (a degradation window's length).
func (b middleBand) spread(n int, tail uint64) bandSlots {
	step := (b.hi - tail - b.lo) / uint64(n+1)
	if step == 0 {
		step = 1
	}
	return bandSlots{lo: b.lo, step: step}
}

// bandSlots places the i-th of n evenly spread events.
type bandSlots struct{ lo, step uint64 }

// at returns event i's cycle: its even slot plus a seeded jitter of up to
// half a step. It draws exactly one value from rng.
func (s bandSlots) at(rng *splitmix64, i int) uint64 {
	base := s.lo + uint64(i+1)*s.step
	return base + rng.next()%(s.step/2+1)
}

// pickDistinct draws k distinct ints from [0,n) in seeded order.
func pickDistinct(rng *splitmix64, n, k int) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Fisher–Yates with the seeded stream.
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// Armed reports whether at least one planned event is due at or before
// cycle. O(1); intended for the per-cycle tick hot path.
func (inj *Injector) Armed(cycle uint64) bool {
	return inj != nil && inj.next < len(inj.plan) && inj.plan[inj.next].Cycle <= cycle
}

// PopDue removes and returns the next planned event due at or before
// cycle. ok is false when nothing is due.
func (inj *Injector) PopDue(cycle uint64) (ev Event, ok bool) {
	if !inj.Armed(cycle) {
		return Event{}, false
	}
	ev = inj.plan[inj.next]
	inj.next++
	switch ev.Kind {
	case SMFail:
		inj.counts.SMFails++
	case GroupFail:
		inj.counts.GroupFails++
	case BankFault:
		inj.counts.BankFaults++
	}
	return ev, true
}

// Plan returns a copy of the full planned schedule (delivered or not).
func (inj *Injector) Plan() []Event {
	out := make([]Event, len(inj.plan))
	copy(out, inj.plan)
	return out
}

// FirstCycle returns the cycle of the earliest planned event and true,
// or (0,false) when the plan is empty.
func (inj *Injector) FirstCycle() (uint64, bool) {
	if inj == nil || len(inj.plan) == 0 {
		return 0, false
	}
	return inj.plan[0].Cycle, true
}

// NextCycle returns the cycle of the earliest undelivered planned event and
// true, or (0,false) when the plan is exhausted (or the injector is nil).
// It is the injector's next-activity bound for the fast-forward engine:
// Armed is false at every cycle strictly before the returned value.
func (inj *Injector) NextCycle() (uint64, bool) {
	if inj == nil || inj.next >= len(inj.plan) {
		return 0, false
	}
	return inj.plan[inj.next].Cycle, true
}

// DropMessage samples the NoC-drop stream: true means this packet is
// lost and must be retransmitted by the caller's model.
func (inj *Injector) DropMessage() bool {
	if inj == nil || inj.dropP == 0 {
		return false
	}
	if inj.dropRng.float64v() < inj.dropP {
		inj.counts.NoCDrops++
		inj.Trace.Note(trace.KNoCDrop)
		return true
	}
	return false
}

// NACKMigration samples the migration-NACK stream: true means the
// PageMove MIGRATION command for one line was rejected and the caller
// must retry or fail the job.
func (inj *Injector) NACKMigration() bool {
	if inj == nil || inj.nackP == 0 {
		return false
	}
	if inj.nackRng.float64v() < inj.nackP {
		inj.counts.MigNACKs++
		return true
	}
	return false
}

// Counts returns the delivered-fault tallies so far.
func (inj *Injector) Counts() Counts {
	if inj == nil {
		return Counts{}
	}
	return inj.counts
}
