package fault

// Whole-GPU crash planning for the cluster failover layer (ISSUE 7). A
// crash removes an entire device — every resident tenant, queue entry, and
// in-flight page — from the cluster at once; the serving frontend recovers
// from the victim's last checkpoint and re-dispatches across survivors.
//
// Crash schedules follow the same discipline as the intra-GPU plan of
// NewInjector: a private splitmix64 stream derived only from the seed,
// victims drawn distinct via seeded Fisher–Yates, events placed in the
// middle 60% of the horizon (warm-up before, observable aftermath behind),
// and a final deterministic sort. Two calls with identical arguments return
// identical schedules.

import "sort"

// Crash is one planned whole-GPU loss.
type Crash struct {
	// Cycle is the simulation cycle at which the GPU disappears.
	Cycle uint64
	// GPU is the victim's index in the cluster.
	GPU int
}

// PlanGPUCrashes builds the deterministic whole-GPU crash schedule for a
// cluster of gpus devices over a horizon of cycles.
//
// Planning rules:
//   - Victims are distinct and clamped so at least one GPU survives (a
//     cluster with zero devices cannot serve anything; the all-dead case is
//     still reachable by passing crashes >= gpus through an explicit
//     schedule, which the frontend reports as a terminal error).
//   - Crashes land in the middle 60% of the horizon (20%..80%), spread
//     evenly with seeded jitter.
//   - The returned schedule is sorted by (Cycle, GPU).
func PlanGPUCrashes(seed int64, gpus, crashes int, horizon uint64) []Crash {
	if gpus <= 0 || crashes <= 0 {
		return nil
	}
	if max := gpus - 1; crashes > max {
		crashes = max
	}
	if crashes <= 0 {
		return nil
	}
	// A distinct stream constant so GPU crashes never correlate with the
	// intra-GPU schedules an injector with the same seed would plan.
	rng := splitmix64(uint64(seed)*0x94d049bb133111eb + 0x9e3779b97f4a7c15)

	slots := newMiddleBand(horizon).spread(crashes, 0)
	victims := pickDistinct(&rng, gpus, crashes)
	plan := make([]Crash, 0, crashes)
	for i, g := range victims {
		plan = append(plan, Crash{Cycle: slots.at(&rng, i), GPU: g})
	}
	sort.Slice(plan, func(a, b int) bool {
		if plan[a].Cycle != plan[b].Cycle {
			return plan[a].Cycle < plan[b].Cycle
		}
		return plan[a].GPU < plan[b].GPU
	})
	return plan
}
