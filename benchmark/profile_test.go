package main

import "testing"

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ugpu/internal/sm.(*SM).pickWarp":                "sm",
		"ugpu/internal/cluster/serve.(*Frontend).Run":    "clusterserve",
		"ugpu/internal/serve.(*Server).Run.func1":        "serve",
		"ugpu/internal/gpu.(*wheel).run":                 "gpu",
		"ugpu/internal/config.Default":                   "other",
		"ugpu/benchmark.(*bench).measure":                "bench",
		"runtime.mallocgc":                               "",
		"runtime/pprof.(*profileBuilder).addCPUData":     "",
		"ugpu/internal/noc.(*deliveryHeap).push":         "noc",
		"ugpu/internal/cache.(*MSHR).Add":                "cache",
		"ugpu/internal/parallel.(*Runner).ForEach.func1": "parallel",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFieldsPackedAndUnpacked(t *testing.T) {
	// Sample{location_id: [3, 300] packed, value: 7 unpacked}.
	msg := []byte{0x0a, 0x03, 0x03, 0xac, 0x02, 0x10, 0x07}
	var s sample
	err := fields(msg, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.locs) != 2 || s.locs[0] != 3 || s.locs[1] != 300 || len(s.values) != 1 || s.values[0] != 7 {
		t.Fatalf("decoded %+v", s)
	}
	if err := fields(msg[:4], func(int, uint64, []byte) error { return nil }); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
