package sm

// State digests (ISSUE 9): every field that can influence a future cycle
// folds in; observation-only and pooling state (freeWarps, addrBuf, Trace,
// Wake, a warp's idx and digest memo) is excluded. Warp and scheduler order
// are themselves deterministic across execution modes, so slices fold in
// place — no canonicalization beyond the field ordering fixed here.

import "ugpu/internal/digest"

// AppendDigest folds one warp's architectural state. The owning SM and the
// stream's backing pointers digest by value, never identity. The small
// bounded fields — presence, the four flags, Outstanding/MaxOut (MSHR-
// limited) and the TB slot index — pack into 16-bit lanes of a single word
// to keep the per-epoch snapshot within its 2% budget (digest_bench_test.go
// in the gpu package).
func (w *Warp) AppendDigest(h digest.Hash) digest.Hash {
	if w == nil {
		return h.Bool(false)
	}
	packed := uint64(1)
	if w.LastValid {
		packed |= 1 << 1
	}
	if w.blocked {
		packed |= 1 << 2
	}
	if w.structStall {
		packed |= 1 << 3
	}
	if w.done {
		packed |= 1 << 4
	}
	packed |= uint64(uint16(w.Outstanding))<<16 |
		uint64(uint16(w.MaxOut))<<32 | uint64(uint16(w.tb))<<48
	h = h.U64(packed)
	h = w.Stream.AppendDigest(h)
	h = h.U64(w.LastVPN).U64(w.LastPA).U64(w.LastVer)
	h = h.Int(len(w.pending))
	for _, va := range w.pending {
		h = h.U64(va)
	}
	return h
}

// DigestOnce returns the warp's standalone digest (AppendDigest onto a fresh
// hash), computed at most once per snapshot: gen identifies the snapshot
// and must be nonzero and new for each one. A warp waiting on many MSHR
// lines is then hashed once.
func (w *Warp) DigestOnce(gen uint64) digest.Hash {
	if w.digestGen != gen {
		w.digestGen, w.digestMemo = gen, w.AppendDigest(digest.New())
	}
	return w.digestMemo
}

// AppendDigest folds the SM's scheduler, TB, and counter state. Call only at
// a settled observation point: the fast-forward engine's lazily-accrued
// stall statistics must be credited first (gpu.settleParked), or the same
// machine state digests differently with the engine on and off.
func (s *SM) AppendDigest(h digest.Hash) digest.Hash {
	h = h.Int(s.ID).Int(int(s.state)).Int(s.AppID()).
		U64(s.switchUntil).Bool(s.onFree != nil).
		F64(s.tbDurationEMA).Int(s.current).Int(s.unready())
	for _, at := range s.tbStart {
		h = h.U64(at)
	}
	h = h.Int(len(s.tbSlots))
	for i := range s.tbSlots {
		slot := &s.tbSlots[i]
		packed := uint64(uint32(slot.liveWarp)) << 1
		if slot.valid {
			packed |= 1
		}
		h = h.U64(packed)
	}
	// Age-ordered resident warps (including done-but-uncompacted ones): this
	// order decides GTO picks, so it is semantic and deterministic.
	h = h.Int(len(s.warps))
	for _, w := range s.warps {
		h = w.AppendDigest(h)
	}
	h = h.Int(len(s.retry))
	for _, w := range s.retry {
		h = w.AppendDigest(h)
	}
	st := s.stats
	return h.U64(st.Instructions).U64(st.MemInstrs).U64(st.IssueSlots).
		U64(st.ActiveCycles).U64(st.StallCycles).U64(st.TBsCompleted)
}
