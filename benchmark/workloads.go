package main

import "fmt"

func workloadNames() []string { return []string{"partition-busy", "serve-sparse", "cluster-gray"} }

func newWorkload(name string, seed int64) (scenario, error) {
	switch name {
	case "partition-busy":
		return newPartitionBusy(seed)
	case "serve-sparse":
		return newServeSparse(seed)
	case "cluster-gray":
		return newClusterGray(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// subSeed derives sub-input k's seed from the run seed (splitmix64), so
// sub-inputs are independent and a seed always yields the same inputs.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}
