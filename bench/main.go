// Command bench is the repository's benchmark: four workloads that drive
// the system through its public entry points, end-to-end metrics measured
// with tracing off, and per-layer metrics from a traced run and from
// layer probes. README.md describes the workloads, the metrics and how
// they interact; BENCHMARK.json at the repo root is the contract.
//
//	bench -workload des-wcc -seed 7 -seconds 10 -trace 0   one run; the last line is its JSON result
//	bench -runs 10                                         every workload, written to out/record.json
//	bench -compare a.json b.json                           two records, one row per metric and workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// config is one run's arguments.
type config struct {
	seed    int64
	seconds time.Duration // length of the timed region
	trace   bool
	out     string // directory for traces, records and temp data
	size    sizing
}

// sizing fixes the input sizes and repeat counts. The benchmark runs at
// full; bench_test.go runs the same code at smoke.
type sizing struct {
	nativeScale int   // RMAT scale of the two native PageRank workloads
	desScale    int   // RMAT scale of des-wcc
	serveScale  int   // RMAT scale of the graph serve-native-mix registers
	probeScale  int   // RMAT scale the layer probes cut their inputs from
	budgetMB    int64 // memory budget of native-oocore-pr, small enough to spill
	setups      int   // engine set-ups per run (serving makes 2n+1: its set-up is 20x shorter); setup_s is their median
	warmups     int   // untimed runs before the timed region
	minRuns     int   // timed runs made even when the budget is already spent
	reps        int   // repetitions of each layer probe; the median is reported
}

var (
	full  = sizing{nativeScale: 18, desScale: 17, serveScale: 14, probeScale: 14, budgetMB: 8, setups: 3, warmups: 2, minRuns: 3, reps: 5}
	smoke = sizing{nativeScale: 14, desScale: 10, serveScale: 10, probeScale: 8, budgetMB: 1, setups: 1, warmups: 1, minRuns: 2, reps: 2}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects values for one of the two metric tables.
type metrics struct {
	defs []metricDef
	vals map[string]float64
}

func newMetrics(trace bool) *metrics {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return &metrics{defs: defs, vals: make(map[string]float64)}
}

// set records a value. A name outside the table is a bug in the harness.
func (m *metrics) set(name string, v float64) {
	if !slices.ContainsFunc(m.defs, func(d metricDef) bool { return d.Name == name }) {
		panic("bench: metric " + name + " is not in the table")
	}
	m.vals[name] = v
}

// setRuntime records the Go runtime's per-layer figures of a timed region.
func (m *metrics) setRuntime(mem memDelta, peakRSSMB float64) {
	m.set("runtime.peak_rss_mb", peakRSSMB)
	m.set("runtime.mallocs_per_op", mem.mallocs)
	m.set("runtime.gc_cycles_per_op", mem.gcCycles)
	m.set("runtime.gc_pause_ms_per_op", mem.gcPauseMs)
}

// report prints every metric of the table by name with its unit, in table
// order, and returns them for the result line.
func (m *metrics) report() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metric{Value: m.vals[d.Name], Unit: d.Unit}
		fmt.Printf("%-44s %16.6g %s\n", d.Name, m.vals[d.Name], d.Unit)
	}
	return out
}

// runWorkload runs one workload once and returns its result.
//
// Every workload runs under GOMAXPROCS=1. The sandbox is 2 vCPUs shared
// with other tenants, and for minutes at a time one of them is slow. With
// a one-core hog beside the harness, an operation of des-wcc took 1.27x
// and one of serve-native-mix 1.92x as long at GOMAXPROCS=2; at 1 the
// kernel moves the one running thread to the free vCPU and the engine
// workloads stayed within 3 % (README.md, "Steadiness"). The figures are
// therefore the program's total work, not its multi-core overlap, which
// this sandbox cannot resolve.
func runWorkload(name string, cfg config) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if w, ok := engineWorkloads(cfg)[name]; ok {
		return runEngine(w, cfg)
	}
	if name == "serve-native-mix" {
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result as the last line (default: run all and write a record)")
		seed     = flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds  = flag.Int("seconds", 10, "length of the timed region of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "out", "directory for traces, records and temp data")
		runs     = flag.Int("runs", 3, "untraced runs per workload of an all-workload run, each with its own seed")
		compare  = flag.Bool("compare", false, "compare two records: bench -compare a.json b.json")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace != 0, out: *out, size: full}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two record files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *workload != "":
		var res *result
		if res, err = runWorkload(*workload, cfg); err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				fmt.Fprintln(os.Stderr, "bench: verification failed")
				os.Exit(1)
			}
		}
	default:
		err = runAll(cfg, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
