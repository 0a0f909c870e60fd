package sm

import (
	"math/rand"
	"testing"
)

// checkReady recomputes the ready mask from the warps and compares: bit i is
// set exactly when warps[i] is neither done nor blocked, each resident warp
// knows its index, and no bit is set past the resident warps.
func checkReady(t *testing.T, s *SM, when string) {
	t.Helper()
	want := make([]uint64, len(s.ready))
	for i, w := range s.warps {
		if w.idx != i {
			t.Fatalf("%s: warps[%d].idx = %d", when, i, w.idx)
		}
		if !w.done && !w.blocked {
			want[i>>6] |= 1 << (i & 63)
		}
	}
	for i := range want {
		if s.ready[i] != want[i] {
			t.Fatalf("%s: ready word %d = %#x, recomputed %#x (%d warps)", when, i, s.ready[i], want[i], len(s.warps))
		}
	}
}

// loadPort accepts loads (rejecting a seeded fraction) and completes each
// after a seeded latency, checking the ready mask after every completion.
type loadPort struct {
	rng      *rand.Rand
	rejectP  float64
	orphaned int // completions delivered to dropped warps
	inflight []struct {
		at uint64
		w  *Warp
	}
}

func (p *loadPort) IssueLoad(cycle uint64, _, _ int, _ uint64, w *Warp) bool {
	if p.rng.Float64() < p.rejectP {
		return false
	}
	p.inflight = append(p.inflight, struct {
		at uint64
		w  *Warp
	}{cycle + 1 + uint64(p.rng.Intn(400)), w})
	return true
}

func (p *loadPort) deliver(t *testing.T, cycle uint64, sms []*SM) {
	live := p.inflight[:0]
	for _, f := range p.inflight {
		if f.at > cycle {
			live = append(live, f)
			continue
		}
		if f.w.idx < 0 {
			p.orphaned++
		}
		f.w.LoadDone()
		for _, s := range sms {
			checkReady(t, s, "LoadDone")
		}
	}
	p.inflight = live
}

// TestReadyMaskMatchesWarps drives two SMs (one with more than 64 warps, so
// the mask spans words) through ticks, structural rejections, load returns
// onto live and orphaned warps, drains, switches, releases, reassignments
// and a hard failure, and recomputes the mask after every step.
func TestReadyMaskMatchesWarps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &loadPort{rng: rng, rejectP: 0.05}
	sms := []*SM{New(0, 8, 8, 2), New(1, 10, 8, 2)}
	apps := []*App{newApp(t, "LBM", 0), newApp(t, "PVC", 1), newApp(t, "CP", 2)}
	for i, s := range sms {
		s.Assign(0, apps[i])
		checkReady(t, s, "Assign")
	}
	events := map[string]int{}
	for c := uint64(1); c < 40_000; c++ {
		p.deliver(t, c, sms)
		for _, s := range sms {
			s.Tick(c, p)
			checkReady(t, s, "Tick")
			s.RetryBlocked(c, p)
			checkReady(t, s, "RetryBlocked")
		}
		if c%997 != 0 {
			continue
		}
		s := sms[rng.Intn(len(sms))]
		switch st := s.State(); {
		case st == Idle:
			s.Assign(c, apps[rng.Intn(len(apps))])
			events["assign"]++
		case st == Draining || st == Active && rng.Intn(3) == 0:
			s.BeginSwitch(c, c+200, nil)
			events["switch"]++
		case st == Active && rng.Intn(2) == 0:
			s.Release(c)
			events["release"]++
		case st == Active:
			s.BeginDrain(c, nil)
			events["drain"]++
		}
		checkReady(t, s, "reallocation")
	}
	if p.orphaned == 0 {
		t.Error("no load completed onto a dropped warp")
	}
	for _, ev := range []string{"assign", "switch", "release", "drain"} {
		if events[ev] == 0 {
			t.Errorf("no %s exercised", ev)
		}
	}
	sms[1].Fail(40_000)
	checkReady(t, sms[1], "Fail")
	p.deliver(t, 1<<40, sms)
}
