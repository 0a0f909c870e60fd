// Package cache implements set-associative caches with LRU replacement and
// miss-status holding registers (MSHRs), used for both the per-SM L1 data
// caches and the LLC slices of the simulated GPU (Table 1 geometries).
//
// Caches are modelled at tag granularity: Access checks and updates
// replacement state, Fill inserts a line. Data values are not stored — data
// correctness in the simulator is tracked at page granularity by the vm
// package.
package cache

// Cache is a set-associative tag array with LRU replacement. The zero value
// is not usable; use New.
type Cache struct {
	sets      int
	ways      int
	lineShift uint

	tags  []uint64 // sets*ways; valid bit encoded separately
	valid []bool
	stamp []uint64 // LRU timestamps
	clock uint64

	stats Stats
}

// Stats holds cumulative access counters.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache with the given geometry. lineBytes must be a power of
// two.
func New(sets, ways, lineBytes int) *Cache {
	if sets <= 0 || ways <= 0 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: invalid geometry")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		tags:      make([]uint64, sets*ways),
		valid:     make([]bool, sets*ways),
		stamp:     make([]uint64, sets*ways),
	}
}

// lineOf maps an address to its line tag; setOf folds upper bits into the
// index so power-of-two strides do not all land in one set.
func (c *Cache) lineOf(pa uint64) uint64 { return pa >> c.lineShift }

func (c *Cache) setOf(line uint64) int {
	h := line ^ line>>7 ^ line>>13
	return int(h % uint64(c.sets))
}

// Access looks up pa, updating LRU state on a hit. It reports whether the
// line was present.
func (c *Cache) Access(pa uint64) bool {
	c.stats.Accesses++
	c.clock++
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.stamp[base+w] = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Peek reports whether pa is present without touching statistics or LRU
// state.
func (c *Cache) Peek(pa uint64) bool {
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Fill inserts the line containing pa, evicting the LRU way if the set is
// full. Filling a line that is already present refreshes its LRU stamp.
func (c *Cache) Fill(pa uint64) {
	c.clock++
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			oldest = 0
			break
		}
		if c.tags[i] == line {
			c.stamp[i] = c.clock
			return
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	if c.valid[victim] {
		c.stats.Evictions++
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.stamp[victim] = c.clock
}

// Invalidate removes the line containing pa if present.
func (c *Cache) Invalidate(pa uint64) {
	line := c.lineOf(pa)
	base := c.setOf(line) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.valid[base+w] = false
			return
		}
	}
}

// InvalidateAll flushes the whole cache (used when memory resources are
// reallocated, Section 4.4).
func (c *Cache) InvalidateAll() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters (used at epoch boundaries).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Occupancy reports the number of valid lines (for tests and invariants).
func (c *Cache) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// CheckInvariants verifies that no set holds duplicate tags and that valid
// counts are within capacity. It returns false on corruption; tests use it
// as a property check.
func (c *Cache) CheckInvariants() bool {
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		for i := 0; i < c.ways; i++ {
			if !c.valid[base+i] {
				continue
			}
			for j := i + 1; j < c.ways; j++ {
				if c.valid[base+j] && c.tags[base+i] == c.tags[base+j] {
					return false
				}
			}
		}
	}
	return true
}

// MSHR tracks outstanding misses and merges requests to the same line. It
// is a fixed open-addressed table of at least twice capacity slots (linear
// probing, backward-shift deletion): at most half full, so probe chains stay
// short, and it never rehashes. Waiter slices retired via Recycle are
// reused for later allocations, so the steady-state miss path does not
// allocate per outstanding line.
type MSHR struct {
	capacity int
	maxMerge int
	n        int         // outstanding lines
	shift    uint        // 64 - log2(len(slots)): home slot = hash >> shift
	slots    []mshrEntry // empty where len(ws) == 0
	free     [][]any     // recycled waiter-slice backing arrays
}

// mshrEntry is one table slot. Every live entry has at least one waiter.
type mshrEntry struct {
	line uint64
	ws   []any
}

// NewMSHR builds an MSHR file with the given entry capacity. maxMerge bounds
// waiters merged per line (0 means unlimited).
func NewMSHR(capacity, maxMerge int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	logSlots := uint(1)
	for 1<<logSlots < 2*capacity {
		logSlots++
	}
	return &MSHR{
		capacity: capacity,
		maxMerge: maxMerge,
		shift:    64 - logSlots,
		slots:    make([]mshrEntry, 1<<logSlots),
	}
}

// home is the line's preferred slot (Fibonacci hashing: consecutive lines
// spread over the table).
func (m *MSHR) home(line uint64) int { return int(line * 0x9E3779B97F4A7C15 >> m.shift) }

// find returns the slot holding line, or the empty slot ending its probe
// chain (where it would be inserted) and false.
func (m *MSHR) find(line uint64) (int, bool) {
	mask := len(m.slots) - 1
	for i := m.home(line); ; i = (i + 1) & mask {
		e := &m.slots[i]
		if len(e.ws) == 0 {
			return i, false
		}
		if e.line == line {
			return i, true
		}
	}
}

// Lookup reports whether a miss for the line is already outstanding.
func (m *MSHR) Lookup(line uint64) bool {
	_, ok := m.find(line)
	return ok
}

// Add registers a waiter for the line. It returns (allocated, ok): ok is
// false if the MSHR is full (new line) or the merge limit is reached;
// allocated is true when this call created the entry — the caller must then
// issue the fill request downstream.
func (m *MSHR) Add(line uint64, waiter any) (allocated, ok bool) {
	i, exists := m.find(line)
	e := &m.slots[i]
	if exists {
		if m.maxMerge > 0 && len(e.ws) >= m.maxMerge {
			return false, false
		}
		e.ws = append(e.ws, waiter)
		return false, true
	}
	if m.n >= m.capacity {
		return false, false
	}
	var ws []any
	if n := len(m.free); n > 0 {
		ws = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		ws = make([]any, 0, 4)
	}
	e.line, e.ws = line, append(ws, waiter)
	m.n++
	return true, true
}

// Remove completes the line's miss and returns its waiters (nil if none
// were outstanding). Callers that fully consume the returned slice should
// hand it back via Recycle.
func (m *MSHR) Remove(line uint64) []any {
	i, ok := m.find(line)
	if !ok {
		return nil
	}
	ws := m.slots[i].ws
	m.n--
	// Backward-shift deletion: walk the chain after the hole and pull back
	// every entry whose home slot does not lie cyclically in (hole, j], so
	// no probe chain ever crosses an empty slot.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; len(m.slots[j].ws) != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].line))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrEntry{}
	return ws
}

// Recycle returns a consumed waiter slice (from Remove) to the MSHR's
// freelist. The caller must not retain the slice afterwards.
func (m *MSHR) Recycle(ws []any) {
	if cap(ws) == 0 || len(m.free) >= m.capacity {
		return
	}
	ws = ws[:cap(ws)]
	clear(ws) // drop waiter references for GC
	m.free = append(m.free, ws[:0])
}

// Len reports the number of outstanding lines.
func (m *MSHR) Len() int { return m.n }

// Full reports whether no new line can be allocated.
func (m *MSHR) Full() bool { return m.n >= m.capacity }
