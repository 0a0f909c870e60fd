package fault

// Gray-failure planning for the cluster resilience layer (ISSUE 10). A gray
// fault degrades a whole GPU without killing it: the device keeps answering,
// but slower — the production failure mode of thermal throttling, a sick HBM
// channel, or a flaky NoC link. The degradation is expressed entirely
// through mechanisms the simulator already models deterministically: a
// forced low SM P-state floor, a stretched DRAM burst occupancy (HBM
// P-state floor), and an elevated NoC packet-drop probability.
//
// Gray schedules follow the same discipline as PlanGPUCrashes: a private
// splitmix64 stream derived only from the seed (distinct constants, so gray
// victims never correlate with crash victims or intra-GPU plans), victims
// drawn distinct via seeded Fisher–Yates, windows placed in the middle 60%
// of the horizon (warm-up before, observable aftermath behind), and a final
// deterministic sort. Two calls with identical arguments return identical
// schedules.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GraySpec describes how many GPUs to gray-degrade and how hard. The zero
// GraySpec injects nothing.
type GraySpec struct {
	// GPUs is the number of distinct victim devices (clamped by the planner
	// so at least one GPU stays healthy).
	GPUs int
	// SMStep is the forced SM P-state floor: every SM frequency domain of
	// the victim runs at least this many states below nominal for the
	// window (clamped to the deepest configured state at application).
	SMStep int
	// HBMStep is the forced HBM P-state floor: the victim's channels run at
	// least this many states below nominal, stretching every DRAM burst.
	HBMStep int
	// NoCDrop is the victim's per-message interconnect drop probability
	// during the window, in [0,1).
	NoCDrop float64
	// Window is the degradation window length as a fraction of the horizon,
	// in (0,1]; 0 means the 0.25 default.
	Window float64
}

// Empty reports whether the spec injects no gray faults at all.
func (s GraySpec) Empty() bool { return s.GPUs == 0 }

// WithDefaults fills the severity knobs a sparse spec leaves zero: a spec
// that names only a victim count degrades with SM floor 3 (quarter issue
// rate), HBM floor 1, and a 0.5% NoC drop over a quarter-horizon window.
func (s GraySpec) WithDefaults() GraySpec {
	if s.Window <= 0 {
		s.Window = 0.25
	}
	if s.SMStep == 0 && s.HBMStep == 0 && s.NoCDrop == 0 {
		s.SMStep = 3
		s.HBMStep = 1
		s.NoCDrop = 0.005
	}
	return s
}

// String renders the spec in ParseGraySpec's format.
func (s GraySpec) String() string {
	if s.Empty() {
		return "none"
	}
	parts := []string{fmt.Sprintf("gpus=%d", s.GPUs)}
	if s.SMStep > 0 {
		parts = append(parts, fmt.Sprintf("sm=%d", s.SMStep))
	}
	if s.HBMStep > 0 {
		parts = append(parts, fmt.Sprintf("hbm=%d", s.HBMStep))
	}
	if s.NoCDrop > 0 {
		parts = append(parts, fmt.Sprintf("noc=%g", s.NoCDrop))
	}
	if s.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%g", s.Window))
	}
	return strings.Join(parts, ",")
}

// graySpecGrammar is the accepted ParseGraySpec grammar, quoted by every
// parse error so a bad -gray-faults value explains how to fix itself.
const graySpecGrammar = `grammar: "gpus=N,sm=D,hbm=D,noc=P,window=F" — N victim GPUs, D a P-state depth (non-negative integer), P a probability in [0,1), F a horizon fraction in (0,1]; keys optional, "none" or "" for no gray faults`

// ParseGraySpec parses a gray-fault spec of the form
//
//	"gpus=1,sm=3,hbm=1,noc=0.005,window=0.25"
//
// Every key is optional; "none" and "" parse to the empty GraySpec. Unknown
// keys, malformed values, negative counts, probabilities outside [0,1), and
// window fractions outside (0,1] are errors; every error names the
// offending field and restates the accepted grammar.
func ParseGraySpec(s string) (GraySpec, error) {
	var spec GraySpec
	err := parseKV(s, "gray spec", graySpecGrammar, func(key, val string) error {
		switch key {
		case "gpus", "sm", "hbm":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("gray spec: field %s has value %q, want a non-negative integer (%s)", key, val, graySpecGrammar)
			}
			switch key {
			case "gpus":
				spec.GPUs = n
			case "sm":
				spec.SMStep = n
			case "hbm":
				spec.HBMStep = n
			}
		case "noc":
			p, err := strconv.ParseFloat(val, 64)
			// p != p rejects NaN, which sails through range comparisons and
			// would poison every later threshold test in the drop sampler.
			if err != nil || p != p || p < 0 || p >= 1 {
				return fmt.Errorf("gray spec: field noc has value %q, want a probability in [0,1) (%s)", val, graySpecGrammar)
			}
			spec.NoCDrop = p
		case "window":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f != f || f <= 0 || f > 1 {
				return fmt.Errorf("gray spec: field window has value %q, want a horizon fraction in (0,1] (%s)", val, graySpecGrammar)
			}
			spec.Window = f
		default:
			return fmt.Errorf("gray spec: unknown field %q, accepted fields are gpus, sm, hbm, noc, window (%s)", key, graySpecGrammar)
		}
		return nil
	})
	if err != nil {
		return GraySpec{}, err
	}
	return spec, nil
}

// GrayFault is one planned degradation window on one GPU. The device stays
// alive throughout; between Start and End it runs with the given P-state
// floors and NoC drop probability.
type GrayFault struct {
	// Start and End bound the degradation window in cycles: [Start, End).
	Start, End uint64
	// GPU is the victim's index in the cluster.
	GPU int
	// SMStep / HBMStep are the forced P-state floors during the window.
	SMStep, HBMStep int
	// NoCDrop is the per-message drop probability during the window.
	NoCDrop float64
}

// PlanGrayFaults builds the deterministic gray-degradation schedule for a
// cluster of gpus devices over a horizon of cycles.
//
// Planning rules:
//   - Victims are distinct and clamped so at least one GPU stays fully
//     healthy (a cluster where everything is sick has no peer baseline to
//     detect against; explicit schedules can still degrade every GPU).
//   - Every window fits inside the middle 60% of the horizon (20%..80%):
//     window length is spec.Window x horizon (clamped to the band), starts
//     spread evenly with seeded jitter.
//   - The returned schedule is sorted by (Start, GPU).
func PlanGrayFaults(seed int64, gpus int, spec GraySpec, horizon uint64) []GrayFault {
	spec = spec.WithDefaults()
	n := spec.GPUs
	if gpus <= 0 || n <= 0 {
		return nil
	}
	if max := gpus - 1; n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	// A distinct stream constant so gray victims never correlate with the
	// crash schedule or intra-GPU plans a seed-sharing injector would build.
	rng := splitmix64(uint64(seed)*0xd1b54a32d192ed03 + 0x94d049bb133111eb)

	band := newMiddleBand(horizon)
	winLen := uint64(spec.Window * float64(band.horizon))
	if winLen > band.hi-band.lo {
		winLen = band.hi - band.lo
	}
	if winLen == 0 {
		winLen = 1
	}
	slots := band.spread(n, winLen)

	victims := pickDistinct(&rng, gpus, n)
	plan := make([]GrayFault, 0, n)
	for i, g := range victims {
		start := slots.at(&rng, i)
		end := start + winLen
		if end > band.hi {
			end = band.hi
		}
		plan = append(plan, GrayFault{
			Start: start, End: end, GPU: g,
			SMStep: spec.SMStep, HBMStep: spec.HBMStep, NoCDrop: spec.NoCDrop,
		})
	}
	sort.Slice(plan, func(a, b int) bool {
		if plan[a].Start != plan[b].Start {
			return plan[a].Start < plan[b].Start
		}
		return plan[a].GPU < plan[b].GPU
	})
	return plan
}

// SetDropP replaces the NoC drop probability mid-run (gray degradation
// windows elevate it at epoch boundaries and restore it after). The drop
// stream state is untouched — with p = 0 DropMessage answers false without
// consuming the stream, so a window's sample sequence depends only on the
// seed and the messages actually sent while elevated.
func (inj *Injector) SetDropP(p float64) {
	if inj == nil {
		return
	}
	inj.dropP = p
}

// DropP is the current per-message NoC drop probability.
func (inj *Injector) DropP() float64 {
	if inj == nil {
		return 0
	}
	return inj.dropP
}
