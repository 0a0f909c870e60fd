package experiments

// The determinism matrix: every sweep figure must produce the same bytes in
// every execution mode. Rows are figures at a fixed test scale; columns are
// modes. The reference cell runs once per row and every other cell is
// compared against it:
//
//	ref    serial, fast-forward on, traced, digested
//	par    Parallel=8, traced, digested: equals ref in figure, log and trace
//	noff   serial, fast-forward off, traced, digested: equals ref likewise
//	plain  Parallel=8, untraced, undigested: equals ref minus its digest note
//
// The figure comparison covers the rendered text and every series value
// exactly; the digest note is part of the figure. Per-row predicates keep
// each figure's own claims (arm and policy names, trace event kinds, zero
// gray false positives), and every traced stream must be well-formed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ugpu/internal/trace"
)

// matrixCell is one run's observable output.
type matrixCell struct {
	fig   Figure
	log   string
	trace string
}

// text renders the figure as the CLI prints it.
func (c matrixCell) text() string {
	var b bytes.Buffer
	c.fig.Format(&b)
	return b.String()
}

// matrixMode is one column of the matrix.
type matrixMode struct {
	name     string
	parallel int
	noFF     bool
	observe  bool // traced and digested (on observable rows)
}

var (
	modeRef   = matrixMode{name: "ref", parallel: 1, observe: true}
	modePar   = matrixMode{name: "par", parallel: 8, observe: true}
	modeNoFF  = matrixMode{name: "noff", parallel: 1, noFF: true, observe: true}
	modePlain = matrixMode{name: "plain", parallel: 8}
)

// matrixRow is one figure at one scale.
type matrixRow struct {
	name  string
	run   func(Options) (Figure, error)
	scale func(o *Options) // applied to tiny()
	// observable rows take a tracer and a digest interval. Figures 10 and
	// 14 take neither, so their rows compare figure and log bytes only and
	// skip the plain column, which would repeat par.
	observable bool
	names      []string // arms or policies the figure's table must name
	kinds      []string // trace event kinds the stream must carry
	// check asserts any further claim on the reference cell; refOf looks
	// up another row's reference cell.
	check func(t *testing.T, ref matrixCell, refOf func(row string) matrixCell)
}

func (r matrixRow) runCell(m matrixMode) (matrixCell, error) {
	o := tiny()
	r.scale(&o)
	o.Parallel = m.parallel
	o.NoFastForward = m.noFF
	var log, tr bytes.Buffer
	o.Log = &log
	if m.observe && r.observable {
		o.Trace = true
		o.TraceOut = &tr
		o.Cfg.DigestEvery = 1
	}
	f, err := r.run(o)
	if err != nil {
		return matrixCell{}, fmt.Errorf("%s/%s: %w", r.name, m.name, err)
	}
	return matrixCell{fig: f, log: log.String(), trace: tr.String()}, nil
}

// serveScale is the serve rows' scale (ServeSweep doubles MaxCycles).
func serveScale(o *Options) {
	o.Cfg.MaxCycles = 40_000
	o.ServeSeed = 9
}

// matrixRows lists the slowest rows first, so the rows running in parallel
// finish close together.
var matrixRows = []matrixRow{
	{
		name: "serve", run: Options.ServeSweep, scale: serveScale, observable: true,
		names: []string{"in-order", "class-aware", "load-aware"},
	},
	{
		name: "serve+faults", run: Options.ServeSweep, observable: true,
		scale: func(o *Options) {
			serveScale(o)
			o.FaultSpec = "sm=2,group=1"
			o.FaultSeed = 7
		},
		check: func(t *testing.T, ref matrixCell, refOf func(string) matrixCell) {
			if !strings.Contains(ref.text(), "note: served on a degraded machine") {
				t.Error("serve+faults does not note the degraded machine")
			}
			if fmt.Sprint(ref.fig.Series) == fmt.Sprint(refOf("serve").fig.Series) {
				t.Error("serve+faults measured exactly what serve did: the faults had no effect")
			}
		},
	},
	{
		name: "gray", run: Options.GraySweep, observable: true,
		scale: func(o *Options) {
			o.Cfg.MaxCycles = 30_000 // GraySweep doubles this internally
			o.ServeSeed = 9
		},
		names: []string{"healthy+detect", "gray+crash", "gray+quarantine"},
		kinds: []string{"gray-fault", "health"},
		check: func(t *testing.T, ref matrixCell, _ func(string) matrixCell) {
			// No arm convicts a healthy GPU, the healthy control included.
			for _, s := range ref.fig.Series {
				if s.Name != "false positives" {
					continue
				}
				for i, v := range s.Values {
					if v != 0 {
						t.Errorf("arm %s convicted %g healthy GPUs", s.Labels[i], v)
					}
				}
				return
			}
			t.Error("figure has no false-positives series")
		},
	},
	{
		name: "failover", run: Options.FailoverSweep, observable: true,
		scale: func(o *Options) {
			o.Cfg.MaxCycles = 30_000 // FailoverSweep doubles this internally
			o.ServeSeed = 9
			o.Brownout = true
		},
		names: []string{"baseline", "crash", "crash+brownout"},
		kinds: []string{"gpu-crash"},
	},
	{
		name: "power", run: Options.PowerSweep, observable: true,
		scale: func(o *Options) {
			o.Cfg.MaxCycles = 40_000
			o.Cfg.EpochCycles = 10_000
			o.ServeSeed = 9
			o.DVFS = true
		},
		names: []string{"baseline", "dvfs", "cap-85", "cap-70"},
		kinds: []string{"power"},
	},
	{
		name: "14", run: Options.Figure14,
		scale: func(o *Options) { o.Mixes = 2 },
		names: []string{"4-program", "8-program"},
	},
	{
		name: "10", run: Options.Figure10,
		scale: func(o *Options) { o.Mixes = 2 },
		names: []string{"BP STP", "BP-BS STP", "BP-SB STP", "UGPU STP", "UGPU-offline STP"},
	},
	{
		// Under -short this is the only row, at tiny() scale, so the
		// race-detector pass still drives a real sweep through the pool.
		name: "faults", run: Options.FaultSweep, observable: true,
		scale: func(o *Options) {
			if !testing.Short() {
				o.Cfg.MaxCycles = 60_000
				o.Cfg.EpochCycles = 15_000
			}
			o.Mixes = 2
			o.FaultSpec = "sm=2,group=1,mig=0.05"
			o.FaultSeed = 7
		},
		names: []string{"healthy", "sm=2,group=1,mig=0.05"},
	},
}

// matrixCells caches every cell run, keyed by row and mode name, so that
// TestModeMatrix and the named tests after it share one run of each cell.
var matrixCells sync.Map // cellKey -> func() (matrixCell, error)

type cellKey struct{ row, mode string }

// rowNamed looks up a row of the matrix.
func rowNamed(name string) matrixRow {
	for _, r := range matrixRows {
		if r.name == name {
			return r
		}
	}
	panic("no matrix row " + name)
}

// cellOf runs a row in a mode, or returns the cached run.
func cellOf(t *testing.T, row string, m matrixMode) matrixCell {
	t.Helper()
	r := rowNamed(row)
	f, _ := matrixCells.LoadOrStore(cellKey{row, m.name},
		sync.OnceValues(func() (matrixCell, error) { return r.runCell(m) }))
	c, err := f.(func() (matrixCell, error))()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// modes lists the columns compared against a row's reference.
func (r matrixRow) modes() []matrixMode {
	if !r.observable {
		return []matrixMode{modePar, modeNoFF}
	}
	return []matrixMode{modePar, modeNoFF, modePlain}
}

// checkRowClaims asserts a row's own claims on its reference cell.
func checkRowClaims(t *testing.T, r matrixRow) {
	t.Helper()
	ref := cellOf(t, r.name, modeRef)
	table := fmt.Sprint(ref.fig.Series) // series names, labels, values
	for _, n := range r.names {
		if !strings.Contains(table, n) {
			t.Errorf("figure table does not name %q:\n%s", n, ref.text())
		}
	}
	for _, k := range r.kinds {
		if !strings.Contains(ref.trace, `"kind":"`+k+`"`) {
			t.Errorf("trace has no %q event", k)
		}
	}
	if r.check != nil {
		r.check(t, ref, func(row string) matrixCell { return cellOf(t, row, modeRef) })
	}
	if r.observable {
		if n, _ := splitDigest(ref.fig.Notes); len(n) != 1 {
			t.Errorf("ref: %d state-digest notes, want 1", len(n))
		}
		checkStreamWellFormed(t, ref.trace)
	}
}

// checkCell compares one mode's cell with the row's reference.
func checkCell(t *testing.T, r matrixRow, m matrixMode) {
	t.Helper()
	want, got := cellOf(t, r.name, modeRef), cellOf(t, r.name, m)
	if !m.observe {
		if n, _ := splitDigest(got.fig.Notes); len(n) != 0 {
			t.Errorf("%s: digest note with digesting off: %q", m.name, n)
		}
		_, want.fig.Notes = splitDigest(want.fig.Notes)
		want.trace = ""
	}
	sameBytes(t, m.name, "figure", want.text(), got.text())
	sameBytes(t, m.name, "series", fmt.Sprint(want.fig.Series), fmt.Sprint(got.fig.Series))
	sameBytes(t, m.name, "progress log", want.log, got.log)
	sameBytes(t, m.name, "trace", want.trace, got.trace)
}

func TestModeMatrix(t *testing.T) {
	// Each -count pass simulates afresh.
	matrixCells.Range(func(k, _ any) bool { matrixCells.Delete(k); return true })
	for _, r := range matrixRows {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() && r.name != "faults" {
				t.Skip("multi-simulation sweep")
			}
			t.Parallel()
			checkRowClaims(t, r)
			for _, m := range r.modes() {
				checkCell(t, r, m)
			}
		})
	}
}

// The tests below check slices of the matrix under their historical names.
// They read the cells TestModeMatrix cached, so in a full run they simulate
// nothing; run alone, they simulate only the cells they need.

// checkSlice checks a row's cells in the given modes against its reference,
// and the row's own claims when claims is set. It skips under -short.
func checkSlice(t *testing.T, row string, claims bool, modes ...matrixMode) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	if claims {
		checkRowClaims(t, rowNamed(row))
	}
	for _, m := range modes {
		checkCell(t, rowNamed(row), m)
	}
}

func TestGoldenFaultSweepDeterministic(t *testing.T)  { checkSlice(t, "faults", false, modePar) }
func TestGoldenFailoverSerialVsParallel(t *testing.T) { checkSlice(t, "failover", true, modePar) }
func TestGoldenGraySerialVsParallel(t *testing.T)     { checkSlice(t, "gray", true, modePar) }
func TestGoldenFailoverFastForwardDifferential(t *testing.T) {
	checkSlice(t, "failover", false, modeNoFF)
}
func TestGoldenGrayFastForwardDifferential(t *testing.T) { checkSlice(t, "gray", false, modeNoFF) }

// TestGoldenTraceJSONLByteIdenticalSerialVsParallel: the par column of every
// traced row, grouped by whether the row injects faults.
func TestGoldenTraceJSONLByteIdenticalSerialVsParallel(t *testing.T) {
	for _, g := range []struct {
		name string
		rows []string
	}{
		{"healthy", []string{"serve", "power"}},
		{"faults", []string{"faults", "serve+faults", "failover", "gray"}},
	} {
		t.Run(g.name, func(t *testing.T) {
			for _, row := range g.rows {
				checkSlice(t, row, false, modePar)
			}
		})
	}
}

// TestGoldenTraceObservationOnly: the plain column of every traced row.
func TestGoldenTraceObservationOnly(t *testing.T) { checkObservable(t, false, modePlain) }

// TestGoldenTraceStreamWellFormed: every traced row's claims, the stream
// check among them.
func TestGoldenTraceStreamWellFormed(t *testing.T) { checkObservable(t, true) }

// checkObservable runs checkSlice on every traced row.
func checkObservable(t *testing.T, claims bool, modes ...matrixMode) {
	for _, r := range matrixRows {
		if r.observable {
			checkSlice(t, r.name, claims, modes...)
		}
	}
}

// TestSweepDigestModeInvariant: the faults row's digest note is the same
// with Parallel=8 and with fast-forward off. It also runs under -short, at
// tiny() scale.
func TestSweepDigestModeInvariant(t *testing.T) {
	want, _ := splitDigest(cellOf(t, "faults", modeRef).fig.Notes)
	if len(want) != 1 {
		t.Fatalf("ref: %d state-digest notes, want 1", len(want))
	}
	for _, m := range []matrixMode{modePar, modeNoFF} {
		got, _ := splitDigest(cellOf(t, "faults", m).fig.Notes)
		sameBytes(t, m.name, "digest note", fmt.Sprint(want), fmt.Sprint(got))
	}
}

// sameBytes reports the first line where a mode's output leaves the
// reference's.
func sameBytes(t *testing.T, mode, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("%s: %s differs from ref at line %d:\n ref %s\n got %s", mode, what, i+1, wl[i], gl[i])
			return
		}
	}
	t.Errorf("%s: %s differs from ref in length: %d vs %d lines", mode, what, len(wl), len(gl))
}

// splitDigest separates a figure's state-digest notes from the rest.
func splitDigest(notes []string) (digest, rest []string) {
	for _, n := range notes {
		if strings.HasPrefix(n, "state digest") {
			digest = append(digest, n)
		} else {
			rest = append(rest, n)
		}
	}
	return digest, rest
}

// checkStreamWellFormed asserts a sweep's JSONL stream is consumable:
// {"task":N} headers ascend from 0, every line is JSON, each task has one
// summary line, and the stream converts cleanly to Chrome trace_event JSON.
func checkStreamWellFormed(t *testing.T, jsonl string) {
	t.Helper()
	wantTask, summaries := 0, 0
	for _, line := range strings.Split(strings.TrimRight(jsonl, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if v, ok := m["task"]; ok && len(m) == 1 {
			if int(v.(float64)) != wantTask {
				t.Fatalf("task header %v, want %d", v, wantTask)
			}
			wantTask++
		}
		if _, ok := m["counters"]; ok {
			summaries++
		}
	}
	if wantTask == 0 {
		t.Fatal("no task headers in trace stream")
	}
	if summaries != wantTask {
		t.Fatalf("summary lines = %d, task headers = %d", summaries, wantTask)
	}
	var chrome bytes.Buffer
	if err := trace.JSONLToChrome(&chrome, strings.NewReader(jsonl)); err != nil {
		t.Fatalf("JSONLToChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
}
