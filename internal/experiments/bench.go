package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// BenchArm is one measured series of the native experiment (native.go):
// a named configuration swept over the machine axis, with the host
// wall-clock the sweep cost and, on the DES arm, the simulated runtime
// per point.
type BenchArm struct {
	Name             string    `json:"name"`
	Machines         []int     `json:"machines"`
	SimulatedSeconds []float64 `json:"simulated_seconds"`
	WallSeconds      float64   `json:"wall_seconds"`
	// WallSecondsPerPoint breaks WallSeconds down per machine-axis
	// point.
	WallSecondsPerPoint []float64 `json:"wall_seconds_per_point,omitempty"`
	// SpillBytesPerPoint records the out-of-core spill traffic per
	// point; present only on the forced-spill (oocore) arm.
	SpillBytesPerPoint []int64 `json:"spill_bytes_per_point,omitempty"`
}

// BenchRecord is the machine-readable result of the native experiment,
// written as BENCH_native.json: the reproduction's own wall-clock on one
// host, never a paper claim. It, BenchArm and emitBench serve that
// experiment alone — CI's "Bench record (native vs DES)" and "Perf gate"
// steps read the file — and go with it (ROADMAP item 5).
type BenchRecord struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	// GoMaxProcs and ComputeWorkers identify the host parallelism the
	// wall-clock numbers were measured under (compute_workers 0 means
	// GOMAXPROCS; simulated numbers are identical for every value).
	GoMaxProcs     int        `json:"gomaxprocs"`
	ComputeWorkers int        `json:"compute_workers"`
	WallSeconds    float64    `json:"wall_seconds"`
	GeneratedAt    string     `json:"generated_at"`
	Arms           []BenchArm `json:"arms"`
	// NativeBeatsDES is true when the native plane's summed wall-clock
	// was at or under the DES driver's on the same graphs (CI asserts
	// it). A pointer so a losing run still serializes an explicit false
	// instead of vanishing from the JSON.
	NativeBeatsDES *bool `json:"native_beats_des,omitempty"`
}

// newBenchRecord starts the native experiment's record at this scale.
func (s Scale) newBenchRecord(experiment string) *BenchRecord {
	return &BenchRecord{
		Experiment:     experiment,
		Scale:          s.Name,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		ComputeWorkers: s.ComputeWorkers,
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
	}
}

// emitBench writes the record to BENCH_<experiment>.json under
// Scale.BenchDir. An empty BenchDir (the Lab/Quick defaults) disables
// emission.
func (s Scale) emitBench(rec *BenchRecord) error {
	if s.BenchDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.BenchDir, "BENCH_"+rec.Experiment+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiments: writing %s: %w", path, err)
	}
	return nil
}
