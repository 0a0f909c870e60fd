package main

import (
	"io"
	"strings"
	"testing"

	"ugpu/internal/experiments"
)

// TestFigureIDs pins the valid-figure list the unknown -fig error prints:
// every generator is named, the power figure is present, and there are no
// duplicate ids (a duplicate would make one figure unreachable by -fig).
func TestFigureIDs(t *testing.T) {
	ids := figureIDs()
	if len(ids) == 0 {
		t.Fatal("no figure ids")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate figure id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"table2", "10", "faults", "serve", "failover", "power", "gray"} {
		if !seen[want] {
			t.Errorf("figure id %q missing from %v", want, ids)
		}
	}
	if msg := strings.Join(ids, ", "); !strings.Contains(msg, "power") {
		t.Errorf("error-message list %q does not mention power", msg)
	}
}

// TestGeneratorFor checks the lookup both ways: every listed id resolves,
// and a bogus id does not (main exits 2 with the valid list in that case).
func TestGeneratorFor(t *testing.T) {
	opt := experiments.Default()
	for _, id := range figureIDs() {
		if _, ok := generatorFor(opt, id); !ok {
			t.Errorf("generatorFor(%q) = false, want true", id)
		}
	}
	if _, ok := generatorFor(opt, "bogus"); ok {
		t.Error("generatorFor(bogus) resolved")
	}
}

// TestCheckGraySpec pins the -gray-faults usage-error path: a malformed
// spec is rejected before any figure runs (main prints the grammar and
// exits 2), while the empty default and a well-formed spec pass.
func TestCheckGraySpec(t *testing.T) {
	for _, ok := range []string{"", "none", "gpus=1", "gpus=2,sm=3,hbm=1,noc=0.005,window=0.25"} {
		if err := checkGraySpec(ok); err != nil {
			t.Errorf("checkGraySpec(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"noc=2", "gpus=-1", "window=0", "bogus=1", "gpus"} {
		err := checkGraySpec(bad)
		if err == nil {
			t.Errorf("checkGraySpec(%q) = nil, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "-gray-faults") {
			t.Errorf("checkGraySpec(%q) error %q does not name the flag", bad, err)
		}
		if !strings.Contains(err.Error(), "grammar:") {
			t.Errorf("checkGraySpec(%q) error %q does not cite the grammar", bad, err)
		}
	}
}

// TestParseArgs pins the flag -> Options wiring of the mode switches the
// determinism contract is stated over: the fast-forward engine, the digest
// interval, the worker count and tracing.
func TestParseArgs(t *testing.T) {
	c, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.opt.NoFastForward || c.opt.Cfg.DigestEvery != 0 || c.opt.Parallel != 0 || c.opt.Trace || c.tracePath != "" {
		t.Errorf("defaults: NoFastForward=%v DigestEvery=%d Parallel=%d Trace=%v tracePath=%q; want fast-forward on, no digest, GOMAXPROCS pool, no trace",
			c.opt.NoFastForward, c.opt.Cfg.DigestEvery, c.opt.Parallel, c.opt.Trace, c.tracePath)
	}

	c, err = parseArgs([]string{"-fastforward=false", "-digest-every", "3", "-parallel", "8",
		"-trace-out", "x.jsonl", "-trace-filter", "fault", "-fig", "gray"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.opt.NoFastForward {
		t.Error("-fastforward=false did not set NoFastForward")
	}
	if c.opt.Cfg.DigestEvery != 3 {
		t.Errorf("-digest-every 3: DigestEvery = %d", c.opt.Cfg.DigestEvery)
	}
	if c.opt.Parallel != 8 {
		t.Errorf("-parallel 8: Parallel = %d", c.opt.Parallel)
	}
	if !c.opt.Trace || c.tracePath != "x.jsonl" || c.opt.TraceFilter != "fault" {
		t.Errorf("-trace-out x.jsonl: Trace=%v tracePath=%q filter=%q; want the path to imply tracing",
			c.opt.Trace, c.tracePath, c.opt.TraceFilter)
	}
	if c.figs != "gray" {
		t.Errorf("-fig gray: figs = %q", c.figs)
	}

	c, err = parseArgs([]string{"-trace", "-trace-filter", "fault"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.opt.Trace || c.tracePath != "trace.jsonl" {
		t.Errorf("-trace: Trace=%v tracePath=%q; want trace.jsonl", c.opt.Trace, c.tracePath)
	}
	if c, _ = parseArgs([]string{"-trace-filter", "fault"}, io.Discard); c.opt.TraceFilter != "" {
		t.Error("-trace-filter applied with tracing off")
	}

	// -fastforward=false and -digest-every N are the only spellings of
	// those modes; a malformed gray spec is a usage error too.
	for _, args := range [][]string{{"-no-fastforward"}, {"-digest"}, {"-gray-faults", "noc=2"}} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}
