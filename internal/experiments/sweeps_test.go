package experiments

// Sweep option handling that the determinism matrix (mode_matrix_test.go)
// does not exercise: custom arms and rates, digesting off by default, and
// rejection of malformed specs.

import (
	"strings"
	"testing"
)

func TestFaultSweepCustomSpecArms(t *testing.T) {
	o := tiny()
	o.FaultSpec = "sm=1"
	o.Cfg.MaxCycles = 20_000
	o.Cfg.EpochCycles = 10_000
	f, err := o.FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("custom spec produced %d arms, want 2 (healthy + custom)", len(f.Series))
	}
	if f.Series[0].Name != "healthy" || f.Series[1].Name != "sm=1" {
		t.Errorf("arm names = %q, %q; want healthy, sm=1", f.Series[0].Name, f.Series[1].Name)
	}
}

func TestFaultSweepRejectsBadSpec(t *testing.T) {
	o := tiny()
	o.FaultSpec = "sm=banana"
	if _, err := o.FaultSweep(); err == nil {
		t.Fatal("FaultSweep accepted a malformed fault spec")
	}
}

// TestSweepDigestOffByDefault: with DigestEvery 0 the sweep emits no digest
// note (digesting must be zero-cost and invisible when disabled).
func TestSweepDigestOffByDefault(t *testing.T) {
	fig, err := tiny().FaultSweep()
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	for _, n := range fig.Notes {
		if strings.HasPrefix(n, "state digest") {
			t.Errorf("digest note emitted with digesting disabled: %q", n)
		}
	}
}

func TestServeSweepRejectsBadFaultSpec(t *testing.T) {
	o := tiny()
	o.FaultSpec = "sm=banana"
	if _, err := o.ServeSweep(); err == nil {
		t.Fatal("ServeSweep accepted a malformed fault spec")
	}
}

func TestServeSweepCustomRate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	o := tiny()
	o.Cfg.MaxCycles = 30_000
	o.ArrivalRate = 10
	o.QoSMix = 0.7
	f, err := o.ServeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) == 0 || len(f.Series[0].Labels) != 1 || f.Series[0].Labels[0] != "r=10" {
		t.Fatalf("custom rate produced labels %v, want [r=10]", f.Series[0].Labels)
	}
	found := false
	for _, n := range f.Notes {
		if strings.Contains(n, "LC fraction 0.70") {
			found = true
		}
	}
	if !found {
		t.Errorf("custom QoS mix not recorded in notes: %v", f.Notes)
	}
}

func TestFailoverRejectsBadFaultSpec(t *testing.T) {
	o := tiny()
	o.FaultSpec = "noc=2"
	if _, err := o.FailoverSweep(); err == nil {
		t.Fatal("FailoverSweep accepted a malformed fault spec")
	}
}

func TestGrayRejectsBadSpec(t *testing.T) {
	o := tiny()
	o.GrayFaults = "noc=1.5"
	if _, err := o.GraySweep(); err == nil {
		t.Fatal("GraySweep accepted a malformed gray spec")
	}
	o.GrayFaults = "bogus=1"
	if _, err := o.GraySweep(); err == nil {
		t.Fatal("GraySweep accepted an unknown gray key")
	}
}
