package obs

import "runtime/metrics"

// Resource attribution: runtime/metrics counters sampled at phase
// boundaries. Both counters are process-wide and monotone, so a delta
// over a serial region attributes that region's allocation volume and
// GC pressure exactly; over a region with concurrent neighbors the
// delta is an upper bound (everything the process allocated while the
// region ran). The span layer therefore samples only on the serial
// phases of the synthesis loop — sizing and layout-extract — where the
// engine runs one phase at a time per run; the two verification
// measurements run concurrently and do not sample.

// resourceKeys are read together in one metrics.Read call: cumulative
// heap allocation and completed GC cycles.
var resourceKeys = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// ResourceSample is one point-in-time reading of the process counters.
type ResourceSample struct {
	// AllocBytes is cumulative bytes allocated on the heap since process
	// start (freed memory is not subtracted — this measures allocation
	// volume, the thing that costs CPU and provokes collection).
	AllocBytes uint64
	// GCCycles counts completed garbage-collection cycles.
	GCCycles uint64
}

// SampleResources reads the counters now. The read is cheap (no
// stop-the-world); sampling at both ends of a phase and subtracting
// yields the phase's delta.
func SampleResources() ResourceSample {
	var samples [len(resourceKeys)]metrics.Sample
	for i, k := range resourceKeys {
		samples[i].Name = k
	}
	metrics.Read(samples[:])
	var out ResourceSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		out.AllocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		out.GCCycles = samples[1].Value.Uint64()
	}
	return out
}
