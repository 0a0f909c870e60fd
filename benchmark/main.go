// Command benchmark is the repository's one benchmark. It runs one of three
// seeded workloads against the simulator's public Go APIs (core.Runner,
// serve.Server, clusterserve.Frontend), checks the outputs, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload partition-busy --seed 1 --seconds 25 --trace 0
//
// LAYERS.md describes every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics with their sample counts for the human-readable
// lines printed before the result.
type report struct {
	metrics map[string]metric
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("metric %-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 25, "measured seconds per phase")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		root    = flag.String("root", ".", "repository root (source digest, fingerprint store)")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	src, err := sourceDigest(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	prov := map[string]any{
		"workload":      *name,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *traced,
		"host_cores":    runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": src,
	}
	pj, _ := json.Marshal(prov) // strings and numbers always marshal
	fmt.Printf("provenance %s\n", pj)

	d := time.Duration(*seconds * float64(time.Second))
	b := &bench{
		w:       w,
		seed:    *seed,
		seconds: d,
		rep:     newReport(),
		store:   fingerprintStore{root: *root, key: fmt.Sprintf("%s-%s-%d", src[:16], *name, *seed)},
	}
	if *traced == 1 {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		// A failure to build or run the workload at all is not a
		// measurement: print no result.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, msg := range b.problems {
		fmt.Println("FAILED:", msg)
	}
	b.rep.print()
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.rep.metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: no operation attempted")
		return 1
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// commit names the measured commit: BENCH_COMMIT as run.sh found it, or
// "unknown" outside a git checkout (the source digest still identifies the
// tree).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
