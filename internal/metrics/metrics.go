// Package metrics collects the runtime accounting the Chaos evaluation
// reports: the per-machine breakdown of Figure 17 (graph processing on own
// vs stolen partitions, vertex-set copying, accumulator merging, merge
// wait, barrier wait), steal statistics, and aggregate I/O figures.
package metrics

import (
	"fmt"

	"chaos/internal/sim"
)

// Category labels one slice of a machine's runtime, matching Figure 17.
type Category int

// Breakdown categories.
const (
	// GPMasterMe is graph-processing time on partitions this machine
	// masters.
	GPMasterMe Category = iota
	// GPMasterOther is graph-processing time on stolen partitions.
	GPMasterOther
	// Copy is time spent loading vertex sets (the cost of stealing).
	Copy
	// Merge is time the master spends merging accumulators and applying.
	Merge
	// MergeWait is time waiting for accumulators to arrive (master) or to
	// be requested (stealer).
	MergeWait
	// Barrier is idle time at phase barriers.
	Barrier
	numCategories
)

var categoryNames = [...]string{
	"gp,master==me", "gp,master!=me", "copy", "merge", "merge wait", "barrier",
}

func (c Category) String() string { return categoryNames[c] }

// Categories lists all categories in display order.
func Categories() []Category {
	cs := make([]Category, numCategories)
	for i := range cs {
		cs[i] = Category(i)
	}
	return cs
}

// MachineStats accumulates one machine's accounting.
type MachineStats struct {
	Time [numCategories]sim.Time
}

// Add charges d to category c.
func (m *MachineStats) Add(c Category, d sim.Time) { m.Time[c] += d }

// Total returns the machine's accounted time.
func (m *MachineStats) Total() sim.Time {
	var t sim.Time
	for _, v := range m.Time {
		t += v
	}
	return t
}

// Run aggregates the statistics of one computation.
type Run struct {
	Algorithm  string
	Machines   []MachineStats
	Runtime    sim.Time
	Preprocess sim.Time
	Iterations int
	// BytesRead / BytesWritten are device-level totals.
	BytesRead, BytesWritten int64
	// StealsAccepted / StealsRejected count steal-proposal outcomes.
	StealsAccepted, StealsRejected int
	// DeviceUtilization is the mean storage-device utilization.
	DeviceUtilization float64
	// CheckpointBytes counts checkpoint I/O.
	CheckpointBytes int64
	// Recoveries counts restarts from checkpoint.
	Recoveries int
	// SpillBytes / SpillFiles count the native update transport's
	// out-of-core traffic: bytes written past the memory budget — update
	// records at their in-memory size, unsafe.Sizeof(UpdRec[U]{}) each,
	// which for MCST and MIS is 1.5 and 1.4 times their encoded size —
	// and spill files created. Always zero under the DES driver (its
	// storage engines are the spill).
	SpillBytes int64
	SpillFiles int
}

// NewRun creates statistics for a run across machines machines.
func NewRun(algorithm string, machines int) *Run {
	return &Run{Algorithm: algorithm, Machines: make([]MachineStats, machines)}
}

// AggregateBandwidth returns total device bytes moved per second of
// runtime, the quantity Figure 14 plots.
func (r *Run) AggregateBandwidth() float64 {
	if r.Runtime == 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / r.Runtime.Seconds()
}

// Fraction returns the cluster-wide share of accounted time spent in
// category c (Figure 17 plots these fractions).
func (r *Run) Fraction(c Category) float64 {
	var total, cat sim.Time
	for i := range r.Machines {
		total += r.Machines[i].Total()
		cat += r.Machines[i].Time[c]
	}
	if total == 0 {
		return 0
	}
	return float64(cat) / float64(total)
}

// RebalanceTime returns the cluster-wide cost of dynamic load balancing —
// copy plus merge plus merge wait — the numerator of Figure 20. The
// worst-case (maximum) single-machine figure is used, as in the paper.
func (r *Run) RebalanceTime() sim.Time {
	var worst sim.Time
	for i := range r.Machines {
		m := &r.Machines[i]
		t := m.Time[Copy] + m.Time[Merge] + m.Time[MergeWait]
		if t > worst {
			worst = t
		}
	}
	return worst
}

// String formats a one-line summary.
func (r *Run) String() string {
	return fmt.Sprintf("%s: %v (%d iters, %.2f GB read, %.2f GB written, util %.1f%%)",
		r.Algorithm, r.Runtime, r.Iterations,
		float64(r.BytesRead)/1e9, float64(r.BytesWritten)/1e9, 100*r.DeviceUtilization)
}
