package main

//chaos:sorted-maps

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// record is what an all-workload run writes and -compare reads: for each
// workload the end-to-end values of every untraced run and the per-layer
// values of the traced one. encoding/json writes map keys sorted, so the
// file's metric order is stable.
type record struct {
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"` // what every workload runs under
	NumCPU     int                        `json:"nproc"`
	Seed       int64                      `json:"seed"` // run r of a workload used seed+r
	Runs       int                        `json:"runs"`
	Seconds    float64                    `json:"seconds"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

// runAll runs every workload, each run in a fresh process of this binary
// so that heap state and peak RSS are the run's own, and writes the
// record to <out>/record.json.
func runAll(cfg config, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := &record{
		GoVersion: runtime.Version(), GOMAXPROCS: 1, NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Runs: runs, Seconds: cfg.seconds.Seconds(),
		Workloads: make(map[string]*workloadRecord),
	}
	child := func(name string, seed int64, trace int) (*result, error) {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(int(cfg.seconds.Seconds())), "-trace", strconv.Itoa(trace), "-out", cfg.out)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		os.Stdout.Write(out)
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: no result line (%v)", name, runErr)
		}
		return &res, nil
	}
	correct := true
	for _, name := range workloadNames {
		wr := &workloadRecord{Correct: true, EndToEnd: make(map[string][]float64), PerLayer: make(map[string]float64)}
		rec.Workloads[name] = wr
		for r := 0; r < runs; r++ {
			res, err := child(name, cfg.seed+int64(r), 0)
			if err != nil {
				return err
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = append(wr.EndToEnd[d.Name], res.Metrics[d.Name].Value)
			}
		}
		res, err := child(name, cfg.seed, 1)
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && res.Correct
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = res.Metrics[d.Name].Value
		}
		correct = correct && wr.Correct
	}

	fmt.Printf("\n%-18s %-18s %14s %8s  %s\n", "workload", "metric", "median", "spread", "unit")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			v := rec.Workloads[name].EndToEnd[d.Name]
			fmt.Printf("%-18s %-18s %14.6g %7.1f%%  %s\n", name, d.Name, median(v), 100*spread(v), d.Unit)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "record.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("record written to", path)
	if !correct {
		return fmt.Errorf("verification failed on at least one workload")
	}
	return nil
}
