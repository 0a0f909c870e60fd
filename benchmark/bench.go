package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run builds the workload anew at least setupReps times, and
// until setupMin has passed; setup_s is the median.
const (
	setupReps = 3
	setupMin  = 300 * time.Millisecond
)

// roundOut is one execution of one sub-input.
type roundOut struct {
	simCycles   uint64        // simulated GPU-cycles, summed over GPUs
	host        time.Duration // host time of the simulation calls
	stepMs      []float64     // host ms per epoch step
	ops, failed int           // operations attempted and failed
	fingerprint uint64        // final state digest
	problem     string        // output-check failure, "" when the outputs check

	// Steady-state heap allocations over steadyCycles simulated cycles
	// (traced rounds only).
	steadyAllocs, steadyCycles uint64
}

// scenario is one workload: a seeded input set driven through a public API.
// It holds a fixed list of sub-inputs generated from the seed; a measured
// phase cycles through them until its time is up, so every sub-input runs at
// least once and repeats must reproduce their fingerprint.
type scenario interface {
	subInputs() int
	// setup builds the workload's machine state from its configuration and
	// returns the host time from configuration to first simulated cycle.
	setup(sp *spans) (time.Duration, error)
	// round runs sub-input k once on the state setup built.
	round(k int, sp *spans) roundOut
	// modelled reports the simulated outcomes over the first execution of
	// every sub-input: deterministic for a seed.
	modelled() modelled
	// counts adds the per-layer counters read from public getters after the
	// last round.
	counts(rep *report)
}

// serialChecker is a scenario that can rerun a sub-input serially and
// compare it with its parallel executions (traced runs only).
type serialChecker interface {
	serialCheck(b *bench)
}

// modelled is a workload's simulated outcome.
type modelled struct {
	simIPC    float64   // instructions retired per simulated GPU-cycle
	lcGoodput float64   // SLO-met latency-critical work per cycle
	slowdowns []float64 // one per completed job (per app-epoch in closed world)
}

// bench runs one workload and accumulates the result.
type bench struct {
	w       scenario
	seed    int64
	seconds time.Duration
	rep     *report
	store   fingerprintStore

	attempted, failed int
	problems          []string
	fps               map[int]uint64 // first fingerprint of each sub-input
}

// phase is the aggregate of one measured phase.
type phase struct {
	rounds       int
	simCycles    uint64
	host         time.Duration
	subs         map[int]*subTimes
	steadyAllocs uint64
	steadyCycles uint64
}

// subTimes holds every execution of one sub-input. Repeats do identical
// simulated work, so the fastest is the one least disturbed by other load
// on the host; the timing metrics take it.
type subTimes struct {
	cycles uint64
	host   []float64   // seconds per execution
	steps  [][]float64 // step ms per execution
}

// cyclesPerSec is simulated cycles over host seconds, taking each
// sub-input's fastest execution.
func (p phase) cyclesPerSec() float64 {
	var cycles, sec float64
	for _, s := range p.subs {
		cycles += float64(s.cycles)
		sec += percentile(s.host, 0)
	}
	return cycles / sec
}

// firstPassSec is the host time of every sub-input's first execution: the
// same work in any phase.
func (p phase) firstPassSec() float64 {
	sec := 0.0
	for _, s := range p.subs {
		sec += s.host[0]
	}
	return sec
}

// stepSamples is each step's fastest time over its sub-input's executions.
func (p phase) stepSamples() []float64 {
	var out []float64
	for _, s := range p.subs {
		for j := range s.steps[0] {
			best := math.Inf(1)
			for _, st := range s.steps {
				if j < len(st) {
					best = math.Min(best, st[j])
				}
			}
			out = append(out, best)
		}
	}
	return out
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setups builds the workload repeatedly and returns each build's set-up
// time; the last build stays in place for the rounds.
func (b *bench) setups(sp *spans) ([]float64, error) {
	var ts []float64
	var total time.Duration
	for len(ts) < setupReps || total < setupMin {
		runtime.GC() // start each build from a collected heap
		d, err := b.w.setup(sp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, d.Seconds())
		total += d
	}
	return ts, nil
}

// measure cycles through the sub-inputs until the phase has lasted
// b.seconds and every sub-input has run, with at least one repeat.
func (b *bench) measure(sp *spans) phase {
	if b.fps == nil {
		b.fps = map[int]uint64{}
	}
	p := phase{subs: map[int]*subTimes{}}
	k := b.w.subInputs()
	var roundSec []float64
	start := time.Now()
	for i := 0; i <= k || time.Since(start) < b.seconds; i++ {
		sub := i % k
		o := b.w.round(sub, sp)
		p.rounds++
		p.simCycles += o.simCycles
		p.host += o.host
		st := p.subs[sub]
		if st == nil {
			st = &subTimes{cycles: o.simCycles}
			p.subs[sub] = st
		}
		st.host = append(st.host, o.host.Seconds())
		roundSec = append(roundSec, o.host.Seconds())
		st.steps = append(st.steps, o.stepMs)
		p.steadyAllocs += o.steadyAllocs
		p.steadyCycles += o.steadyCycles
		b.attempted += o.ops
		failed := o.failed
		if o.problem != "" {
			b.problem("sub-input %d: %s", sub, o.problem)
			failed = o.ops
		}
		if fp, ok := b.fps[sub]; !ok {
			b.fps[sub] = o.fingerprint
		} else if fp != o.fingerprint {
			b.problem("sub-input %d: fingerprint %016x, earlier %016x", sub, o.fingerprint, fp)
			failed = o.ops
		}
		b.failed += failed
	}
	fmt.Printf("phase rounds=%d sim_cycles=%d host_s=%.3f wall_s=%.3f round_s=%.3f\n",
		p.rounds, p.simCycles, p.host.Seconds(), time.Since(start).Seconds(), roundSec)
	return p
}

// fingerprint folds the sub-input fingerprints, prints the fold and checks
// it against earlier runs of the same seed and sources.
func (b *bench) fingerprint() {
	h := sha256.New()
	for sub := 0; sub < b.w.subInputs(); sub++ {
		fmt.Fprintf(h, "%016x\n", b.fps[sub])
	}
	fp := hex.EncodeToString(h.Sum(nil))[:32]
	fmt.Printf("fingerprint %s\n", fp)
	if prev, err := b.store.check(fp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: fingerprint store:", err)
	} else if prev != "" {
		b.problem("fingerprint %s differs from an earlier run of this seed (%s)", fp, prev)
		b.failed = b.attempted
	}
}

// endToEnd measures the end-to-end metrics with tracing off.
func (b *bench) endToEnd() error {
	ts, err := b.setups(nil)
	if err != nil {
		return err
	}
	p := b.measure(nil)
	b.fingerprint()
	r := b.rep
	r.set("setup_s", "s", median(ts), len(ts))
	r.set("sim_cycles_per_s", "1/s", p.cyclesPerSec(), p.rounds)
	steps := p.stepSamples()
	r.set("step_ms.p50", "ms", percentile(steps, 50), len(steps))
	r.set("step_ms.p90", "ms", percentile(steps, 90), len(steps))
	r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	m := b.w.modelled()
	n := len(m.slowdowns)
	r.set("sim_ipc", "instr/cycle", m.simIPC, b.w.subInputs())
	r.set("lc_goodput", "ratio", m.lcGoodput, n)
	// A run has 72-200 slowdown samples: enough for p90, while p99 would
	// need a thousand for ten samples beyond it, so p99 is only printed.
	r.set("p90_slowdown", "x", percentile(m.slowdowns, 90), n)
	fmt.Printf("p99_slowdown %.6g x (n=%d, under ten samples beyond it)\n", percentile(m.slowdowns, 99), n)
	return nil
}

// traced measures the per-layer metrics: an untraced phase for reference,
// then a phase under the CPU profiler with spans around every public call.
func (b *bench) traced() error {
	sp := newSpans()
	if _, err := b.setups(sp); err != nil {
		return err
	}
	ref := b.measure(nil)
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	tp := b.measure(sp)
	pprof.StopCPUProfile()
	b.fingerprint()

	r := b.rep
	shares, err := attribute(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	shares.report(r)
	r.set("trace.overhead_pct", "%", (tp.firstPassSec()/ref.firstPassSec()-1)*100, 2*len(tp.subs))
	if tp.steadyCycles > 0 {
		r.set("gpu.allocs_per_kcycle", "count", float64(tp.steadyAllocs)/(float64(tp.steadyCycles)/1000), tp.rounds)
	} else {
		r.set("gpu.allocs_per_kcycle", "count", 0, 0)
	}
	for _, name := range []string{"metrics.alone_s", "serve.run_s", "clusterserve.run_s"} {
		v := sp.d[name]
		r.set(name, "s", median(v), len(v))
	}
	b.w.counts(r)
	r.set("parallel.speedup", "x", 0, 0)
	if c, ok := b.w.(serialChecker); ok {
		c.serialCheck(b)
	}
	pb, err := newPartitionBusy(b.seed)
	if err != nil {
		return err
	}
	return drives(r, pb.cfg, pb.mix)
}

// spans records host time around the benchmark's calls into each layer.
type spans struct{ d map[string][]float64 }

func newSpans() *spans { return &spans{d: map[string][]float64{}} }

// time runs f, recording its duration under name when s is non-nil.
func (s *spans) time(name string, f func() error) error {
	if s == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	s.d[name] = append(s.d[name], time.Since(t0).Seconds())
	return err
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between closest ranks; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(rank-float64(lo))
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where /proc is
// unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// sourceDigest hashes the module's Go sources and build files, so results
// from a checkout without git history still name the code they measured.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("no go.mod at repository root %q: %w", root, err)
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".sum", ".sh":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fingerprintStore keeps the fingerprint of each (sources, workload, seed)
// under .bench_build, so two runs of one seed that disagree fail.
type fingerprintStore struct{ root, key string }

// check records fp on first use and returns the earlier value when it
// differs ("" when it matches or is new).
func (s fingerprintStore) check(fp string) (string, error) {
	dir := filepath.Join(s.root, ".bench_build", "fingerprints")
	path := filepath.Join(dir, s.key)
	if prev, err := os.ReadFile(path); err == nil {
		if p := strings.TrimSpace(string(prev)); p != fp {
			return p, nil
		}
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fp+"\n"), 0o644); err != nil {
		return "", err
	}
	return "", os.Rename(tmp, path)
}
