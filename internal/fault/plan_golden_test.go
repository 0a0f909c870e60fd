package fault

// Golden plans: the exact schedules the three planners (NewInjector,
// PlanGPUCrashes, PlanGrayFaults) return for a fixed set of seeds, specs,
// machine shapes and horizons, including every clamp. Recorded figures and
// benchmark fingerprints depend on these schedules, so a planner refactor
// must reproduce them draw for draw. Regenerate (only for an intended
// schedule change) with:
//
//	go test ./internal/fault -run TestGoldenPlans -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planners")

// renderPlans writes every golden case's schedule, one event per line.
func renderPlans(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	seeds := []int64{0, 1, 7, 42, -3}

	small := Geometry{NumSMs: 4, NumGroups: 2, NumChannels: 4, BankGroups: 2, BanksPerGroup: 2, Horizon: 60_000}
	noBanks := testGeo()
	noBanks.NumChannels = 0
	short := testGeo()
	short.Horizon = 50 // below the 100-cycle floor
	crowded := testGeo()
	crowded.Horizon = 100 // more events than band cycles: step clamps to 1
	injCases := []struct {
		spec string
		geo  Geometry
	}{
		{"sm=2,group=1,mig=0.05", testGeo()},
		{"sm=1", testGeo()},
		{"bank=3", testGeo()},
		{"sm=5,group=4,bank=2,noc=0.01", testGeo()},
		{"sm=9,group=9,bank=1", small}, // sm clamps to 2, group to 1
		{"sm=1,bank=4", noBanks},       // no channels: banks dropped
		{"sm=2,group=1,bank=1", short},
		{"sm=60,group=7,bank=8", crowded},
	}
	for _, c := range injCases {
		spec, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			fmt.Fprintf(&b, "injector seed=%d spec=%s geo=%+v\n", seed, c.spec, c.geo)
			for _, ev := range NewInjector(seed, spec, c.geo).Plan() {
				fmt.Fprintf(&b, "  %+v\n", ev)
			}
		}
	}

	crashCases := []struct {
		gpus, crashes int
		horizon       uint64
	}{
		{4, 1, 60_000},
		{4, 2, 80_000},
		{4, 9, 80_000}, // clamps to 3
		{1, 1, 60_000}, // no survivor possible: empty
		{8, 3, 50},     // below the 100-cycle floor
		{100, 70, 100}, // step clamps to 1
	}
	for _, c := range crashCases {
		for _, seed := range seeds {
			fmt.Fprintf(&b, "crashes seed=%d gpus=%d n=%d horizon=%d\n", seed, c.gpus, c.crashes, c.horizon)
			for _, cr := range PlanGPUCrashes(seed, c.gpus, c.crashes, c.horizon) {
				fmt.Fprintf(&b, "  %+v\n", cr)
			}
		}
	}

	grayCases := []struct {
		spec    string
		gpus    int
		horizon uint64
	}{
		{"gpus=1", 4, 60_000},
		{"gpus=1,sm=3,hbm=2,noc=0.01,window=0.35", 4, 60_000},
		{"gpus=2,sm=2,window=0.5", 4, 80_000},
		{"gpus=5,noc=0.002", 4, 80_000}, // clamps to 3
		{"gpus=1,window=1", 4, 60_000},  // window clamps to the band
		{"gpus=2", 8, 50},               // below the 100-cycle floor
		{"gpus=1", 1, 60_000},           // no healthy peer possible: empty
		{"gpus=40,window=0.9", 100, 100},
	}
	for _, c := range grayCases {
		spec, err := ParseGraySpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			fmt.Fprintf(&b, "gray seed=%d spec=%s gpus=%d horizon=%d\n", seed, c.spec, c.gpus, c.horizon)
			for _, g := range PlanGrayFaults(seed, c.gpus, spec, c.horizon) {
				fmt.Fprintf(&b, "  %+v\n", g)
			}
		}
	}
	return b.Bytes()
}

func TestGoldenPlans(t *testing.T) {
	path := filepath.Join("testdata", "plans.golden")
	got := renderPlans(t)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("plan line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
