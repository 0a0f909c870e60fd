package dram

import (
	"math/rand"
	"testing"

	"ugpu/internal/addr"
	"ugpu/internal/config"
	"ugpu/internal/digest"
)

// ppmmLoad keeps page migrations (PPMM) and reads/writes to the same
// channel groups in flight, so MIGRATION commands keep colliding with busy
// banks and bank-group paths. A finished page job restarts on the next of a
// fixed set of frames.
type ppmmLoad struct {
	h        *HBM
	m        *addr.CustomMapper
	cfg      config.Config
	rng      *rand.Rand
	pool     []*Request
	src, dst [][]addr.Location // per frame: the page's line pairs
	next     int
	restart  func(cycle uint64)
}

func newPPMMLoad(seed int64, jobs int) *ppmmLoad {
	cfg := config.Default()
	l := &ppmmLoad{h: New(cfg, 2), m: addr.NewCustomMapper(cfg), cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	done := func(_ uint64, r *Request) { l.pool = append(l.pool, r) }
	for i := 0; i < 512; i++ {
		l.pool = append(l.pool, &Request{Done: done})
	}
	for f := uint64(0); f < 64; f++ {
		s, d := pageLinePairs(l.m, int(f%2), 2+int(f%3), f)
		l.src, l.dst = append(l.src, s), append(l.dst, d)
	}
	l.restart = func(cycle uint64) {
		f := l.next % len(l.src)
		l.next++
		if err := l.h.StartMigration(cycle, l.src[f], l.dst[f], ModePPMM, 0, l.restart); err != nil {
			panic(err)
		}
	}
	for i := 0; i < jobs; i++ {
		l.restart(0)
	}
	return l
}

// step enqueues up to four accesses to the migrating groups and ticks.
func (l *ppmmLoad) step(cycle uint64) {
	for i := 0; i < 4 && len(l.pool) > 0; i++ {
		pa := l.m.FrameBase(l.rng.Intn(5), uint64(l.rng.Intn(64))) + uint64(l.rng.Intn(32))*uint64(l.cfg.L1LineBytes)
		r := l.pool[len(l.pool)-1]
		r.Addr, r.Loc, r.IsWrite = pa, l.m.Decode(pa), l.rng.Intn(4) == 0
		if !l.h.Enqueue(cycle, r) {
			break
		}
		l.pool = l.pool[:len(l.pool)-1]
	}
	l.h.Tick(cycle)
}

// TestPPMMNotBeforeIsExact runs the same migration-plus-traffic load twice,
// once with the notBefore cache cleared before every tick, and requires
// identical memory-system state on every cycle. It also checks the premise
// the cache rests on: bank readyAt and bank-group migBusyTil never move
// backward, including across injected bank faults.
func TestPPMMNotBeforeIsExact(t *testing.T) {
	cached, uncached := newPPMMLoad(7, 8), newPPMMLoad(7, 8)
	var prev []int64
	skipped := 0
	for c := uint64(0); c < 20_000; c++ {
		for _, job := range uncached.h.migs {
			for i := range job.lines {
				job.lines[i].notBefore = 0
			}
		}
		for _, job := range cached.h.migs {
			for i := range job.lines {
				if l := &job.lines[i]; l.state == lineStatePending && l.notBefore > c && l.retryAt <= c {
					skipped++
				}
			}
		}
		if c%5000 == 4999 {
			cached.h.InjectBankFault(c, 3, 5, 300)
			uncached.h.InjectBankFault(c, 3, 5, 300)
		}
		cached.step(c)
		uncached.step(c)
		if c%8 == 0 {
			if a, b := cached.h.AppendDigest(digest.New()), uncached.h.AppendDigest(digest.New()); a != b {
				t.Fatalf("cycle %d: memory state diverges with the notBefore cache (%x vs %x)", c, a, b)
			}
		}
		var now []int64
		for _, ch := range cached.h.channels {
			for i := range ch.banks {
				now = append(now, ch.banks[i].readyAt)
			}
			for i := range ch.groups {
				now = append(now, ch.groups[i].migBusyTil)
			}
		}
		for i := range prev {
			if now[i] < prev[i] {
				t.Fatalf("cycle %d: bank readyAt or bank-group migBusyTil %d moved backward from %d to %d", c, i, prev[i], now[i])
			}
		}
		prev = now
	}
	if got := cached.h.TotalStats().Migrations; got < 1000 {
		t.Errorf("only %d MIGRATION commands completed; the load is too light to test the cache", got)
	}
	if skipped == 0 {
		t.Error("the notBefore cache never skipped a line")
	}
}

// BenchmarkPPMMTick prices one memory-system cycle with eight page
// migrations (PPMM) in flight against read/write traffic to the same channel
// groups, restarting each job as it finishes. Job construction is the only
// allocation: a handful per 32 MIGRATION commands.
func BenchmarkPPMMTick(b *testing.B) {
	l := newPPMMLoad(1, 8)
	for c := uint64(0); c < 20_000; c++ {
		l.step(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step(uint64(20_000 + i))
	}
}
