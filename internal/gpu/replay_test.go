package gpu

import (
	"math/rand"
	"testing"

	"ugpu/internal/sm"
)

// TestReplayFIFOOrder drives the replay queue with random pushes, pops and
// resets against a plain slice: entries must come out oldest first across
// head advances, compactions (a push into a full backing array with a
// consumed prefix) and resets, and no consumed slot may keep its warp.
func TestReplayFIFOOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f replayFIFO
	var model []replayReq
	w := new(sm.Warp)
	compactions := 0
	for step := 0; step < 50_000; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			req := replayReq{app: step % 3, pa: uint64(step), vpn: uint64(step) >> 5, w: w}
			if f.head > 0 && len(f.q) == cap(f.q) {
				compactions++
			}
			f.push(req)
			model = append(model, req)
		case r < 99:
			if len(model) == 0 {
				continue
			}
			if got := f.pop(); got != model[0] {
				t.Fatalf("step %d: pop = %+v, want %+v", step, got, model[0])
			}
			model = model[1:]
		default:
			f.reset()
			model = model[:0]
		}
		if f.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, f.len(), len(model))
		}
		for i, e := range f.entries() {
			if e != model[i] {
				t.Fatalf("step %d: entries()[%d] = %+v, want %+v", step, i, e, model[i])
			}
		}
		for i := 0; i < f.head; i++ {
			if f.q[i] != (replayReq{}) {
				t.Fatalf("step %d: consumed slot %d still holds %+v", step, i, f.q[i])
			}
		}
		for _, e := range f.q[len(f.q):cap(f.q)] {
			if e.w != nil {
				t.Fatalf("step %d: slot past the tail still references a warp", step)
			}
		}
	}
	if compactions == 0 {
		t.Error("no push compacted the queue")
	}
}
