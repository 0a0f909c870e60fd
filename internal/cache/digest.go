package cache

// State digests (ISSUE 9). The tag array digests in index order (layout is
// deterministic); the MSHR's entry table digests as an unordered multiset,
// with each entry's waiters folded in their (deterministic) merge order
// through a caller-supplied waiter hasher — the cache package stores waiters
// as opaque `any` values and cannot hash them itself. The waiter-slice
// freelist is pooling state and is excluded.

import "ugpu/internal/digest"

// AppendDigest folds the tag array, LRU state, and counters.
func (c *Cache) AppendDigest(h digest.Hash) digest.Hash {
	h = h.Int(c.sets).Int(c.ways).U64(c.clock)
	for i := range c.tags {
		if c.valid[i] {
			h = h.Bool(true).U64(c.tags[i]).U64(c.stamp[i])
		} else {
			h = h.Bool(false)
		}
	}
	st := c.stats
	return h.U64(st.Accesses).U64(st.Hits).U64(st.Misses).U64(st.Evictions)
}

// AppendDigest folds the outstanding-miss file. hashWaiter maps one opaque
// waiter to its content hash (the gpu package supplies per-level hashers for
// *sm.Warp and its own request type).
func (m *MSHR) AppendDigest(h digest.Hash, hashWaiter func(any) digest.Hash) digest.Hash {
	var acc digest.Acc
	for i := 0; i < len(m.slots) && m.n > 0; i++ {
		e := &m.slots[i]
		if len(e.ws) == 0 {
			continue
		}
		eh := digest.New().U64(e.line).Int(len(e.ws))
		for _, w := range e.ws {
			eh = eh.U64(uint64(hashWaiter(w)))
		}
		acc.Add(eh)
	}
	return h.Int(m.capacity).Int(m.maxMerge).Acc(acc)
}
