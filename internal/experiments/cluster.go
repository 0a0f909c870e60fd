package experiments

// Helpers shared by the cluster sweeps (failover, gray, power): each arm is
// one clusterserve run, and the figures read the same report fields.

import (
	"fmt"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/digest"
	"ugpu/internal/trace"
)

// clusterArm is one finished arm of a cluster sweep: its report, its
// progress-log line and, in the power figure, its cluster cap in watts.
type clusterArm struct {
	rep  *clusterserve.Report
	capW float64
	line string
}

// pickArms reads one metric from every arm, in arm order.
func pickArms(arms []clusterArm, get func(*clusterserve.Report) float64) []float64 {
	out := make([]float64, len(arms))
	for i, a := range arms {
		out[i] = get(a.rep)
	}
	return out
}

// clusterDigestNote folds each arm's frontend state digest and the final
// chain link of each of its backends, in arm order, into the figure's
// "state digest" note.
func clusterDigestNote(arms []clusterArm, every int) string {
	d := digest.New()
	for _, a := range arms {
		d = d.U64(a.rep.SLO.StateDigest)
		for _, bc := range a.rep.BackendDigests {
			d = d.U64(bc.Final())
		}
	}
	return fmt.Sprintf("state digest %016x over all arms and backends (chained every %d epochs); must match across serial/parallel and fast-forward on/off", uint64(d), every)
}

// attachTracers gives a cluster run a frontend tracer and one tracer per
// backend when tracing is on.
func (o Options) attachTracers(ccfg *clusterserve.Config) error {
	if !o.Trace {
		return nil
	}
	tr, err := o.cellTracer()
	if err != nil {
		return err
	}
	ccfg.Trace = tr
	ccfg.BackendTracers = make([]*trace.Tracer, ccfg.GPUs)
	for i := range ccfg.BackendTracers {
		if ccfg.BackendTracers[i], err = o.cellTracer(); err != nil {
			return err
		}
	}
	return nil
}
