package cache

import (
	"math/rand"
	"testing"
)

// checkMSHR verifies the table against the reference model: the same lines
// with the same waiters in merge order, and every entry reachable from its
// home slot without crossing an empty slot (the linear-probing invariant
// backward-shift deletion must preserve).
func checkMSHR(t *testing.T, m *MSHR, ref map[uint64][]any) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d lines", m.Len(), len(ref))
	}
	mask := len(m.slots) - 1
	live := 0
	for i := range m.slots {
		e := &m.slots[i]
		if len(e.ws) == 0 {
			continue
		}
		live++
		for j := m.home(e.line); j != i; j = (j + 1) & mask {
			if len(m.slots[j].ws) == 0 {
				t.Fatalf("line %d at slot %d unreachable: empty slot %d after home %d", e.line, i, j, m.home(e.line))
			}
		}
		want, ok := ref[e.line]
		if !ok {
			t.Fatalf("table holds line %d absent from the reference", e.line)
		}
		if len(want) != len(e.ws) {
			t.Fatalf("line %d: %d waiters, want %d", e.line, len(e.ws), len(want))
		}
		for k := range want {
			if e.ws[k] != want[k] {
				t.Fatalf("line %d waiter %d = %v, want %v", e.line, k, e.ws[k], want[k])
			}
		}
	}
	if live != len(ref) {
		t.Fatalf("%d live slots, want %d", live, len(ref))
	}
}

// TestMSHRMatchesMapModel drives the open-addressed table with random
// Add/Remove sequences against a map-based reference. The line pool is
// biased toward lines whose home slot is one of the table's last slots, so
// probe chains wrap the table end and deletions land inside chains.
func TestMSHRMatchesMapModel(t *testing.T) {
	for _, tc := range []struct{ capacity, maxMerge int }{{2, 0}, {4, 0}, {8, 3}, {32, 2}, {128, 0}} {
		rng := rand.New(rand.NewSource(int64(tc.capacity)))
		m := NewMSHR(tc.capacity, tc.maxMerge)
		mask := len(m.slots) - 1
		var pool []uint64
		for line := uint64(1); len(pool) < 3*tc.capacity+4; line++ {
			if h := m.home(line); h >= len(m.slots)-2 || rng.Intn(16) == 0 {
				pool = append(pool, line)
			}
		}
		ref := map[uint64][]any{}
		var refusedFull, refusedMerge, wrapped, chainDeletes int
		for step := 0; step < 20000; step++ {
			line := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				if i, ok := m.find(line); ok && len(m.slots[(i+1)&mask].ws) != 0 {
					chainDeletes++
				}
				ws := m.Remove(line)
				want := ref[line]
				if len(ws) != len(want) {
					t.Fatalf("cap %d step %d: Remove(%d) returned %d waiters, want %d", tc.capacity, step, line, len(ws), len(want))
				}
				for k := range want {
					if ws[k] != want[k] {
						t.Fatalf("cap %d step %d: Remove(%d)[%d] = %v, want %v", tc.capacity, step, line, k, ws[k], want[k])
					}
				}
				delete(ref, line)
				m.Recycle(ws)
			} else {
				ws, exists := ref[line]
				wantOK := true
				switch {
				case exists && tc.maxMerge > 0 && len(ws) >= tc.maxMerge:
					wantOK = false
					refusedMerge++
				case !exists && len(ref) >= tc.capacity:
					wantOK = false
					refusedFull++
				}
				alloc, ok := m.Add(line, step)
				if ok != wantOK || alloc != (ok && !exists) {
					t.Fatalf("cap %d step %d: Add(%d) = (%v, %v), want (%v, %v)", tc.capacity, step, line, alloc, ok, wantOK && !exists, wantOK)
				}
				if ok {
					ref[line] = append(ws, step)
				}
			}
			if m.Lookup(line) != (ref[line] != nil) {
				t.Fatalf("cap %d step %d: Lookup(%d) disagrees with the reference", tc.capacity, step, line)
			}
			if m.Full() != (len(ref) >= tc.capacity) {
				t.Fatalf("cap %d step %d: Full = %v with %d of %d lines", tc.capacity, step, m.Full(), len(ref), tc.capacity)
			}
			checkMSHR(t, m, ref)
			for i := range m.slots {
				if e := &m.slots[i]; len(e.ws) != 0 && i < m.home(e.line) {
					wrapped++
				}
			}
		}
		if refusedFull == 0 || wrapped == 0 || chainDeletes == 0 {
			t.Errorf("cap %d: model run missed a case: %d full refusals, %d wrapped-chain observations, %d deletions inside a chain",
				tc.capacity, refusedFull, wrapped, chainDeletes)
		}
		if tc.maxMerge > 0 && refusedMerge == 0 {
			t.Errorf("cap %d: merge limit %d never reached", tc.capacity, tc.maxMerge)
		}
	}
}

// TestMSHRRecycleDropsWaiters pins the GC contract: a recycled waiter slice
// holds no references, and a removed line's slot holds none either.
func TestMSHRRecycleDropsWaiters(t *testing.T) {
	m := NewMSHR(4, 0)
	w := new(int)
	m.Add(5, w)
	m.Add(5, w)
	ws := m.Remove(5)
	m.Recycle(ws)
	for _, f := range m.free {
		for _, x := range f[:cap(f)] {
			if x != nil {
				t.Fatal("recycled waiter slice still references a waiter")
			}
		}
	}
	for i := range m.slots {
		if m.slots[i].ws != nil {
			t.Fatalf("slot %d still holds a waiter slice after Remove", i)
		}
	}
}

var mshrWaiter = new(int)

// TestMSHRSteadyStateAllocFree: once the waiter-slice freelist is warm, a
// miss's Add/merge/Remove/Recycle cycle allocates nothing.
func TestMSHRSteadyStateAllocFree(t *testing.T) {
	m := NewMSHR(128, 0)
	line := uint64(0)
	step := func() {
		line++
		m.Add(line, mshrWaiter)
		m.Add(line, mshrWaiter)
		if line > 64 {
			m.Recycle(m.Remove(line - 64))
		}
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("MSHR steady state allocates %.1f objects per miss, want 0", n)
	}
}

// BenchmarkMSHRAddRemove keeps half an L1-sized MSHR outstanding: one op is
// one new line plus one merged waiter, and the retirement of the oldest line.
func BenchmarkMSHRAddRemove(b *testing.B) {
	const capacity = 128
	m := NewMSHR(capacity, 0)
	rng := rand.New(rand.NewSource(1))
	lines := make([]uint64, 4096)
	for i := range lines {
		lines[i] = uint64(rng.Int63()) >> 7
	}
	var ring [capacity]uint64 // outstanding lines, oldest at head
	head, n := 0, 0
	step := func(i int) {
		line := lines[i&(len(lines)-1)]
		if alloc, ok := m.Add(line, mshrWaiter); ok && alloc {
			ring[(head+n)%capacity] = line
			n++
		}
		m.Add(line, mshrWaiter)
		if n > capacity/2 {
			m.Recycle(m.Remove(ring[head]))
			head = (head + 1) % capacity
			n--
		}
	}
	for i := 0; i < 10_000; i++ {
		step(i) // warm the waiter-slice freelist
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
