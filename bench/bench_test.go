package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"chaos"
)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContractMatchesTables holds BENCHMARK.json and the harness's metric
// tables together: same workloads, same metrics, units, directions and
// bounds, and names the contract's alphabet allows.
func TestContractMatchesTables(t *testing.T) {
	b := readContract(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness table:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness table:\n%v\n%v", b.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) is misnamed or listed twice", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, x := range exactPerLayer {
		if !seen[x] {
			t.Errorf("exact figure %q is not a per-layer metric", x)
		}
	}
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d == metricDef{"setup_s", "s", "lower", d.Bound} }) {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// TestSmoke runs all four workloads and every probe at smoke size, with
// tracing off and on, and checks that each run verifies, fails no
// operation and emits exactly its table's metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 3, trace: trace, out: t.TempDir(), size: smoke}
			res, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, table has %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
				}
			}
			if !trace {
				continue
			}
			if _, err := os.Stat(filepath.Join(cfg.out, name+".trace.json")); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
			// The predicted bypasses: spill only out of core, the cache
			// answering one job in five, nothing refused, nothing dropped.
			v := func(metric string) float64 { return res.Metrics[metric].Value }
			spills := name == "native-oocore-pr"
			if (v("native.spill_bytes") > 0) != spills || (v("native.spill_busy_s") > 0) != spills {
				t.Errorf("%s: spill_bytes=%v spill_busy_s=%v", name, v("native.spill_bytes"), v("native.spill_busy_s"))
			}
			if name == "serve-native-mix" && v("service.cache_hit_ratio") != 0.2 {
				t.Errorf("cache_hit_ratio = %v, want 0.2", v("service.cache_hit_ratio"))
			}
			if v("service.rejected_429") != 0 || v("obs.spans_dropped") != 0 {
				t.Errorf("%s: rejected_429=%v spans_dropped=%v", name, v("service.rejected_429"), v("obs.spans_dropped"))
			}
			if entries, _ := os.ReadDir(cfg.out); len(entries) != 1 {
				t.Errorf("%s: temp data left behind in %s: %v", name, cfg.out, entries)
			}
		}
	}
}

// TestCompare checks the verdicts on synthetic records: a regression past
// the bound is flagged and fails the comparison, one inside it passes, and
// a spread wider than the bound is reported as unresolved.
func TestCompare(t *testing.T) {
	def := endToEnd[1] // op_s
	write := func(scale, jitter float64) string {
		rec := record{Workloads: make(map[string]*workloadRecord)}
		for _, name := range workloadNames {
			wr := &workloadRecord{Correct: true, Attempted: 10, EndToEnd: make(map[string][]float64), PerLayer: make(map[string]float64)}
			for _, d := range endToEnd {
				for i := 0; i < 10; i++ {
					v := 1 + jitter*float64(i-5)
					if d.Name == def.Name {
						v *= scale
					}
					wr.EndToEnd[d.Name] = append(wr.EndToEnd[d.Name], v)
				}
			}
			rec.Workloads[name] = wr
		}
		data, _ := json.Marshal(rec)
		path := filepath.Join(t.TempDir(), "record.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(1, 0.001)
	for _, tc := range []struct {
		scale, jitter float64
		worse         bool
		verdict       string
	}{
		{1 + def.Bound + 0.05, 0.001, true, "worse"},
		{1 + def.Bound - 0.05, 0.001, false, "same"},
		{1 - def.Bound - 0.05, 0.001, false, "better"},
		{1, 0.1, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(tc.scale, tc.jitter))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !bytes.Contains(out.Bytes(), []byte(tc.verdict)) {
			t.Errorf("scale %.2f jitter %.3f: worse=%v, want %v with a %q row:\n%s", tc.scale, tc.jitter, worse, tc.worse, tc.verdict, out.String())
		}
	}
}

// TestNestSelfTime checks the span arithmetic behind the busy metrics: a
// spill inside a scatter of the same machine is its child, a span of
// another machine is not, and self time leaves the children out.
func TestNestSelfTime(t *testing.T) {
	spans := []chaos.TraceSpan{
		{Machine: 0, Phase: chaos.PhaseSpill, Start: 20, Dur: 30},
		{Machine: 0, Phase: chaos.PhaseScatter, Start: 0, Dur: 100},
		{Machine: 1, Phase: chaos.PhaseGather, Start: 10, Dur: 40},
		{Machine: 0, Phase: chaos.PhaseGather, Start: 100, Dur: 50},
	}
	parents, self := nest(spans)
	if !slices.Equal(parents, []int{1, -1, -1, -1}) || !slices.Equal(self, []int64{30, 70, 40, 50}) {
		t.Errorf("parents %v self %v", parents, self)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5/5.5 {
		t.Errorf("spread = %v, want 1 (quartiles 2.75 and 8.25 around median 5.5)", got)
	}
}
