package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	c := New(64, 6, 128)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000)
	if !c.Access(0x1000) {
		t.Fatal("access after fill missed")
	}
	if !c.Access(0x1040) {
		t.Fatal("same-line access (offset 64) missed")
	}
	if c.Access(0x1080) {
		t.Fatal("next line hit without fill")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses, 2 hits, 2 misses", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 1 set, 2 ways.
	c := New(1, 2, 128)
	c.Fill(0 * 128)
	c.Fill(1 * 128)
	c.Access(0 * 128) // make line 0 MRU
	c.Fill(2 * 128)   // must evict line 1
	if !c.Peek(0 * 128) {
		t.Error("MRU line evicted")
	}
	if c.Peek(1 * 128) {
		t.Error("LRU line survived")
	}
	if !c.Peek(2 * 128) {
		t.Error("filled line absent")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(16, 4, 128)
	c.Fill(0x4000)
	c.Invalidate(0x4000)
	if c.Peek(0x4000) {
		t.Error("line present after Invalidate")
	}
	for i := 0; i < 100; i++ {
		c.Fill(uint64(i) * 128)
	}
	c.InvalidateAll()
	if c.Occupancy() != 0 {
		t.Errorf("occupancy = %d after InvalidateAll, want 0", c.Occupancy())
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(8, 2, 128)
	for i := 0; i < 1000; i++ {
		c.Fill(uint64(i) * 128)
	}
	if occ := c.Occupancy(); occ > 16 {
		t.Errorf("occupancy = %d exceeds capacity 16", occ)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		c := New(32, 4, 128)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			pa := uint64(rng.Intn(1<<16) * 128)
			switch rng.Intn(4) {
			case 0, 1:
				if !c.Access(pa) {
					c.Fill(pa)
				}
			case 2:
				c.Fill(pa)
			case 3:
				c.Invalidate(pa)
			}
		}
		return c.CheckInvariants() && c.Occupancy() <= 32*4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHitRateReflectsWorkingSet(t *testing.T) {
	// A working set that fits should converge to ~100% hit rate; one 4x the
	// capacity should be well below.
	run := func(lines int) float64 {
		c := New(64, 6, 128) // 384-line capacity
		for pass := 0; pass < 8; pass++ {
			for i := 0; i < lines; i++ {
				pa := uint64(i) * 128
				if !c.Access(pa) {
					c.Fill(pa)
				}
			}
		}
		s := c.Stats()
		return float64(s.Hits) / float64(s.Accesses)
	}
	small := run(128)
	big := run(64 * 6 * 4)
	if small < 0.85 {
		t.Errorf("small working set hit rate = %.2f, want >= 0.85", small)
	}
	if big > small {
		t.Errorf("oversized working set hit rate %.2f not below fitting set %.2f", big, small)
	}
}

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHR(2, 0)
	alloc, ok := m.Add(1, "a")
	if !alloc || !ok {
		t.Fatal("first Add should allocate")
	}
	alloc, ok = m.Add(1, "b")
	if alloc || !ok {
		t.Fatal("second Add to same line should merge")
	}
	if alloc, ok = m.Add(2, "c"); !alloc || !ok {
		t.Fatal("second line should allocate")
	}
	if _, ok = m.Add(3, "d"); ok {
		t.Fatal("MSHR overfull")
	}
	// Merging to existing lines still works when full.
	if _, ok = m.Add(2, "e"); !ok {
		t.Fatal("merge rejected while entries available")
	}
	ws := m.Remove(1)
	if len(ws) != 2 || ws[0] != "a" || ws[1] != "b" {
		t.Fatalf("Remove(1) = %v, want [a b]", ws)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
	if _, ok = m.Add(3, "d"); !ok {
		t.Fatal("Add after Remove should succeed")
	}
}

func TestMSHRMergeLimit(t *testing.T) {
	m := NewMSHR(4, 2)
	m.Add(7, 1)
	if _, ok := m.Add(7, 2); !ok {
		t.Fatal("second waiter within merge limit rejected")
	}
	if _, ok := m.Add(7, 3); ok {
		t.Fatal("merge limit not enforced")
	}
}
