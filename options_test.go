package chaos

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"PR", "PR"}, {"pr", "PR"}, {"pagerank", "PR"},
		{"bfs", "BFS"}, {"Sssp", "SSSP"}, {"cond", "Cond"},
		{"conductance", "Cond"}, {"spmv", "SpMV"}, {"bp", "BP"},
	}
	for _, c := range cases {
		got, err := ParseAlgorithm(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := ParseAlgorithm("dijkstra"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("ParseAlgorithm(dijkstra) err = %v, want unknown-algorithm error", err)
	}
}

func TestParseStorageAndNetwork(t *testing.T) {
	if s, err := ParseStorage(""); err != nil || s != SSD {
		t.Errorf("ParseStorage(\"\") = %v, %v", s, err)
	}
	if s, err := ParseStorage("HDD"); err != nil || s != HDD {
		t.Errorf("ParseStorage(HDD) = %v, %v", s, err)
	}
	if _, err := ParseStorage("tape"); err == nil {
		t.Error("ParseStorage(tape) should error")
	}
	if n, err := ParseNetwork("1g"); err != nil || n != Net1GigE {
		t.Errorf("ParseNetwork(1g) = %v, %v", n, err)
	}
	if n, err := ParseNetwork("40gige"); err != nil || n != Net40GigE {
		t.Errorf("ParseNetwork(40gige) = %v, %v", n, err)
	}
	if _, err := ParseNetwork("10g"); err == nil {
		t.Error("ParseNetwork(10g) should error")
	}
}

func TestParseOptionsAppliesHardware(t *testing.T) {
	alg, opt, err := ParseOptions("pagerank", "hdd", "1g", Options{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if alg != "PR" || opt.Storage != HDD || opt.Network != Net1GigE || opt.Machines != 4 {
		t.Errorf("got %q %+v", alg, opt)
	}
	// Empty algorithm is allowed (hardware-only callers).
	if _, _, err := ParseOptions("", "", "", Options{}); err != nil {
		t.Errorf("empty spec should parse: %v", err)
	}
	if _, _, err := ParseOptions("PR", "floppy", "", Options{}); err == nil {
		t.Error("bad storage should error")
	}
	if _, _, err := ParseOptions("nope", "", "", Options{}); err == nil {
		t.Error("bad algorithm should error")
	}
}

func TestCanonicalMakesDefaultsExplicit(t *testing.T) {
	zero := Options{}.Canonical()
	explicit := Options{
		Machines: 1, Cores: 16, ChunkBytes: 4 << 20, VertexChunkBytes: 4 << 20,
		BatchK: 5, Alpha: 1, MaxIterations: 1000, LatencyScale: 1, Seed: 1,
	}.Canonical()
	if !reflect.DeepEqual(zero, explicit) {
		t.Errorf("zero canonical %+v != explicit defaults %+v", zero, explicit)
	}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Error("fingerprints of equivalent options differ")
	}
	if (Options{}).Fingerprint() == (Options{Machines: 2}).Fingerprint() {
		t.Error("distinct configurations share a fingerprint")
	}
}

// goldenFingerprints pins Fingerprint's output byte for byte. Every
// string was captured from the hand-written field-by-field encoder this
// repo shipped through PR 11: cache keys on disk and in memory are hashes
// of these strings, so a one-character drift orphans every stored result.
var goldenFingerprints = []struct {
	name string
	opt  Options
	want string
}{
	{"zero", Options{},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"native-hdd-1g", Options{Engine: "native", Machines: 2, ChunkBytes: 64 << 10, LatencyScale: 1.0 / 64, MemoryBudgetMB: 8, Seed: 7, Storage: HDD, Network: Net1GigE, AlwaysSteal: true},
		"machines=2;storage=hdd;network=1g;cores=16;chunkBytes=65536;vertexChunkBytes=65536;memBudgetBytes=0;memoryBudgetMB=8;batchK=5;windowOverride=0;alpha=0;disableStealing=false;alwaysSteal=true;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=0.015625;computeWorkers=0;engine=native;nativeBarrier=false;seed=7;"},
	{"disable-stealing-wins", Options{DisableStealing: true, AlwaysSteal: true, Alpha: 3},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=0;disableStealing=true;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"always-steal-drops-alpha", Options{AlwaysSteal: true, Alpha: 3},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=0;disableStealing=false;alwaysSteal=true;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"alpha-explicit", Options{Alpha: 2.5},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=2.5;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"alpha-negative", Options{Alpha: -1},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"engine-des", Options{Engine: "des"},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"engine-sim", Options{Engine: "sim"},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"engine-NATIVE", Options{Engine: "NATIVE"},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=native;nativeBarrier=false;seed=1;"},
	{"engine-unknown-kept", Options{Engine: "turbo"},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=turbo;nativeBarrier=false;seed=1;"},
	{"compute-workers-erased", Options{ComputeWorkers: 4},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"negative-clamps", Options{Machines: -3, Cores: -1, ChunkBytes: -5, VertexChunkBytes: -6, MemBudgetBytes: -7, MemoryBudgetMB: -8, BatchK: -2, WindowOverride: -9, CheckpointEvery: -1, FailAtIteration: -4, MaxIterations: -10, LatencyScale: -0.5, ComputeWorkers: -2, Seed: -11},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=-11;"},
	{"out-of-range-devices", Options{Storage: 7, Network: -2},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	// nativeBarrier=false although the options set it: the barrier phase
	// schedule is gone and Canonical folds the flag away (PR 23). Every
	// other term is as PR 11 captured it.
	{"every-field", Options{Machines: 3, Storage: HDD, Network: Net1GigE, Cores: 8, ChunkBytes: 1 << 12, VertexChunkBytes: 1 << 11, MemBudgetBytes: 1 << 21, MemoryBudgetMB: 12, BatchK: 7, WindowOverride: 9, Alpha: 2.5, CheckpointEvery: 2, FailAtIteration: 3, CentralDirectory: true, CombineUpdates: true, RewriteEdges: true, ReplicateVertices: true, MaxIterations: 42, LatencyScale: 0.25, ComputeWorkers: 4, Engine: "native", NativeBarrier: true, Seed: 99},
		"machines=3;storage=hdd;network=1g;cores=8;chunkBytes=4096;vertexChunkBytes=2048;memBudgetBytes=2097152;memoryBudgetMB=12;batchK=7;windowOverride=9;alpha=2.5;disableStealing=false;alwaysSteal=false;checkpointEvery=2;failAtIteration=3;centralDirectory=true;combineUpdates=true;rewriteEdges=true;replicateVertices=true;maxIterations=42;latencyScale=0.25;computeWorkers=0;engine=native;nativeBarrier=false;seed=99;"},
	{"vertex-chunk-follows-chunk", Options{ChunkBytes: 1 << 10},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=1024;vertexChunkBytes=1024;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=1;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
	{"float-shortest-repr", Options{Alpha: 1e21, LatencyScale: 1.0 / 4096},
		"machines=1;storage=ssd;network=40g;cores=16;chunkBytes=4194304;vertexChunkBytes=4194304;memBudgetBytes=0;memoryBudgetMB=0;batchK=5;windowOverride=0;alpha=1e+21;disableStealing=false;alwaysSteal=false;checkpointEvery=0;failAtIteration=0;centralDirectory=false;combineUpdates=false;rewriteEdges=false;replicateVertices=false;maxIterations=1000;latencyScale=0.000244140625;computeWorkers=0;engine=sim;nativeBarrier=false;seed=1;"},
}

func TestFingerprintGolden(t *testing.T) {
	for _, g := range goldenFingerprints {
		if got := g.opt.Fingerprint(); got != g.want {
			t.Errorf("%s: fingerprint drifted\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}

// TestOptionsJSONRoundTrip: the wire form loses nothing the fingerprint
// sees — what the journal writes restores to the same cache key.
func TestOptionsJSONRoundTrip(t *testing.T) {
	for _, g := range goldenFingerprints {
		data, err := json.Marshal(g.opt)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		var back Options
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: decoding %s: %v", g.name, data, err)
		}
		if got := back.Fingerprint(); got != g.want {
			t.Errorf("%s: %s decodes to fingerprint\n got %s\nwant %s", g.name, data, got, g.want)
		}
	}
	if data, _ := json.Marshal(Options{}); string(data) != "{}" {
		t.Errorf("zero Options marshals as %s, want {}", data)
	}
	data, _ := json.Marshal(Options{Machines: 2, Storage: HDD, Network: Net1GigE, Seed: 7})
	if want := `{"machines":2,"storage":"hdd","network":"1g","seed":7}`; string(data) != want {
		t.Errorf("wire form %s, want %s", data, want)
	}
}

// TestOptionsJSONDevices: devices decode from names (the API) and from
// the integers 0/1 (every journal written before the JSON tags), and
// nothing else.
func TestOptionsJSONDevices(t *testing.T) {
	for body, want := range map[string]Options{
		`{"storage":"HDD","network":"1gige"}`: {Storage: HDD, Network: Net1GigE},
		`{"storage":"","network":"40g"}`:      {},
		`{"storage":null,"network":null}`:     {},
		`{"Storage":1,"Network":1}`:           {Storage: HDD, Network: Net1GigE},
		`{"Storage":0,"Network":0}`:           {},
	} {
		var got Options
		if err := json.Unmarshal([]byte(body), &got); err != nil || got != want {
			t.Errorf("%s decoded to %+v, %v; want %+v", body, got, err, want)
		}
	}
	for body, msg := range map[string]string{
		`{"storage":"tape"}`: `chaos: unknown storage "tape" (want ssd or hdd)`,
		`{"network":"10g"}`:  `chaos: unknown network "10g" (want 40g or 1g)`,
		`{"storage":7}`:      `chaos: storage must be a name or the legacy value 0 or 1, got 7`,
		`{"network":-1}`:     `chaos: network must be a name or the legacy value 0 or 1, got -1`,
		`{"storage":1.5}`:    `chaos: storage must be a name or the legacy value 0 or 1, got 1.5`,
		`{"storage":true}`:   `chaos: storage must be a name or the legacy value 0 or 1, got true`,
	} {
		var got Options
		if err := json.Unmarshal([]byte(body), &got); err == nil || err.Error() != msg {
			t.Errorf("%s: err = %v, want %s", body, err, msg)
		}
	}
}

// TestEveryFieldReachesFingerprint finds the fields by reflection: a
// non-default value in any one of them must move the fingerprint, unless
// the field is on the short list Canonical deliberately erases. A field
// added to Options passes without an edit here; one that Canonical starts
// swallowing does not.
func TestEveryFieldReachesFingerprint(t *testing.T) {
	erased := map[string]bool{
		// Host parallelism only: results, reports and simulated times are
		// bit-identical for every value.
		"ComputeWorkers": true,
		// Accepted and ignored: the schedule it selected is gone, and a
		// body that still sets it must share the cache entry of one
		// that does not.
		"NativeBarrier": true,
	}
	base := Options{}.Fingerprint()
	components := strings.Split(strings.TrimSuffix(base, ";"), ";")
	typ := reflect.TypeOf(Options{})
	if len(components) != typ.NumField() {
		t.Fatalf("fingerprint has %d components, Options has %d fields", len(components), typ.NumField())
	}
	keys := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, rest, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" || key == "-" || rest != "omitempty" || keys[key] {
			t.Errorf("Options.%s: json tag %q must be a unique `key,omitempty`", f.Name, f.Tag.Get("json"))
		}
		keys[key] = true

		var opt Options
		v := reflect.ValueOf(&opt).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
			if v.Interface() == reflect.ValueOf(Options{}.Canonical()).Field(i).Interface() {
				v.SetInt(3) // 1 is this field's default
			}
		case reflect.Float64:
			v.SetFloat(0.375)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(EngineNative)
		default:
			t.Fatalf("Options.%s: kind %s has no fingerprint encoding", f.Name, v.Kind())
		}
		moved := opt.Fingerprint() != base
		if moved == erased[f.Name] {
			t.Errorf("Options.%s = %v: fingerprint moved = %v, erased-by-Canonical = %v", f.Name, v.Interface(), moved, erased[f.Name])
		}
		if !strings.HasPrefix(components[i], key+"=") {
			t.Errorf("fingerprint component %d is %q, want %s=...", i, components[i], key)
		}
	}
}

func TestCanonicalFoldsStealingKnobs(t *testing.T) {
	disabled := Options{DisableStealing: true, AlwaysSteal: true, Alpha: 3}.Canonical()
	if !disabled.DisableStealing || disabled.AlwaysSteal || disabled.Alpha != 0 {
		t.Errorf("DisableStealing canonical = %+v", disabled)
	}
	always := Options{AlwaysSteal: true, Alpha: 3}.Canonical()
	if !always.AlwaysSteal || always.Alpha != 0 {
		t.Errorf("AlwaysSteal canonical = %+v", always)
	}
	if (Options{}).Canonical().Alpha != 1 {
		t.Error("default alpha should canonicalize to 1")
	}
}

// TestCanonicalRunEquivalence checks the contract that running the
// canonical form behaves exactly like running the original options.
// Each case leaves most fields zero so that a drift between Canonical's
// explicit values and the engine defaults (cluster.SSD,
// core.DefaultConfig, Config.Normalize) shows up as diverging reports.
func TestCanonicalRunEquivalence(t *testing.T) {
	edges := GenerateRMAT(6, false, 42)
	lab := Options{ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096}
	cases := map[string]Options{
		"zero-heavy":  {Machines: 2, ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096, Seed: 7},
		"defaults":    {},
		"hdd-1g":      {Storage: HDD, Network: Net1GigE, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
		"no-stealing": {DisableStealing: true, Machines: 2, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
		"always":      {AlwaysSteal: true, Machines: 2, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
		"checkpoint":  {CheckpointEvery: 2, Machines: 2, ChunkBytes: lab.ChunkBytes, LatencyScale: lab.LatencyScale},
	}
	for name, opt := range cases {
		rep1, err := RunByName("PR", edges, 1<<6, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep2, err := RunByName("PR", edges, 1<<6, opt.Canonical())
		if err != nil {
			t.Fatalf("%s canonical: %v", name, err)
		}
		if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: canonical run diverged:\n%+v\n%+v", name, rep1, rep2)
		}
	}
}

func TestViewForAndApply(t *testing.T) {
	edges := GenerateRMAT(5, false, 1)
	for _, alg := range Algorithms() {
		v, err := ViewFor(alg)
		if err != nil {
			t.Fatalf("ViewFor(%s): %v", alg, err)
		}
		switch alg {
		case "BFS", "WCC", "MCST", "MIS", "SSSP":
			if v != ViewUndirected {
				t.Errorf("ViewFor(%s) = %v, want undirected", alg, v)
			}
		case "SCC":
			if v != ViewAugmented {
				t.Errorf("ViewFor(%s) = %v, want augmented", alg, v)
			}
		default:
			if v != ViewDirected {
				t.Errorf("ViewFor(%s) = %v, want directed", alg, v)
			}
		}
	}
	if _, err := ViewFor("nope"); err == nil {
		t.Error("ViewFor(nope) should error")
	}
	// Every non-loop edge gains a reverse; self-loops are emitted once.
	loops := 0
	for _, e := range edges {
		if e.Src == e.Dst {
			loops++
		}
	}
	if got := ViewUndirected.Apply(edges); len(got) != 2*len(edges)-loops {
		t.Errorf("undirected view has %d edges, want %d", len(got), 2*len(edges)-loops)
	}
	if got := ViewDirected.Apply(edges); len(got) != len(edges) {
		t.Error("directed view must be the identity")
	}
}

// TestRunPreparedMatchesRunByName checks that dispatching through a
// pre-applied view (the job-service path) reproduces RunByName exactly.
func TestRunPreparedMatchesRunByName(t *testing.T) {
	opt := Options{ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096, Seed: 3}
	for _, alg := range []string{"BFS", "PR", "SCC"} {
		edges := GenerateRMAT(5, NeedsWeights(alg), 42)
		res1, rep1, err := RunByNameResult(alg, edges, 1<<5, opt)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		view, _ := ViewFor(alg)
		res2, rep2, err := RunPrepared(alg, view.Apply(edges), 1<<5, opt)
		if err != nil {
			t.Fatalf("%s prepared: %v", alg, err)
		}
		if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: prepared run diverged from RunByName", alg)
		}
	}
}

func TestRunByNameResultSummaries(t *testing.T) {
	opt := Options{ChunkBytes: 1 << 10, LatencyScale: 1.0 / 4096, Seed: 3}
	edges := GenerateRMAT(5, false, 42)
	res, _, err := RunByNameResult("BFS", edges, 1<<5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "BFS" || res.Vertices != 1<<5 {
		t.Errorf("result header %+v", res)
	}
	if res.Summary["reachable"] < 1 || res.Summary["reachable"] > 1<<5 {
		t.Errorf("implausible reachable count %v", res.Summary["reachable"])
	}
	levels, _, err := RunBFS(edges, 1<<5, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	reachable := 0
	for _, l := range levels {
		if l != ^uint32(0) {
			reachable++
		}
	}
	if float64(reachable) != res.Summary["reachable"] {
		t.Errorf("summary reachable %v != recomputed %d", res.Summary["reachable"], reachable)
	}

	// n = 0 means "infer": every algorithm, including the scalar-valued
	// Cond, must still report the inferred vertex count (one past the
	// largest vertex ID present), not 0.
	cond, _, err := RunByNameResult("Cond", edges, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(NumVertices(edges)); cond.Vertices != want || cond.Vertices == 0 {
		t.Errorf("Cond with inferred n: Vertices = %d, want %d", cond.Vertices, want)
	}
}

// TestEveryOptionReachesTheEngine: a non-default value in any Options
// field must change the engine configuration config builds, so no option
// is accepted and silently dropped. Fields are found by reflection, as
// in TestEveryFieldReachesFingerprint; the exemptions reach the run some
// other way or not at all, and must leave the configuration alone.
func TestEveryOptionReachesTheEngine(t *testing.T) {
	exempt := map[string]bool{
		// Selects the driver (runProgram), not a configuration value.
		"Engine": true,
		// Accepted and ignored by both engines.
		"NativeBarrier": true,
	}
	base := Options{}.config()
	canon := reflect.ValueOf(Options{}.Canonical())
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var opt Options
		v := reflect.ValueOf(&opt).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
			if v.Interface() == canon.Field(i).Interface() {
				v.SetInt(3) // 1 is this field's default
			}
		case reflect.Float64:
			v.SetFloat(0.375)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(EngineNative)
		default:
			t.Fatalf("Options.%s: kind %s has no off-default value here", f.Name, v.Kind())
		}
		moved := !reflect.DeepEqual(opt.config(), base)
		if moved == exempt[f.Name] {
			t.Errorf("Options.%s = %v: engine config moved = %v, exempt = %v", f.Name, v.Interface(), moved, exempt[f.Name])
		}
	}
}

// TestHugeMemoryBudgetRejected: a budget whose byte count overflows an
// int64 would wrap to a small or negative transport budget; Validate
// refuses it, and so does every run, since runs validate through it.
func TestHugeMemoryBudgetRejected(t *testing.T) {
	const want = "chaos: memoryBudgetMB 17592186044417 is more than the 8796093022207 MiB a byte count can hold"
	huge := Options{MemoryBudgetMB: 1<<44 + 1} // << 20 wraps to 1 MiB
	if err := huge.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %s", err, want)
	}
	if err := (Options{MemoryBudgetMB: 1 << 43}).Validate(); err == nil {
		t.Error("Validate accepted 2^43 MiB, whose byte count is MinInt64")
	}
	if err := (Options{MemoryBudgetMB: 1<<43 - 1}).Validate(); err != nil {
		t.Errorf("Validate refused the largest countable budget: %v", err)
	}
	if _, err := RunByName("PR", GenerateRMAT(4, false, 1), 0, huge); err == nil || err.Error() != want {
		t.Errorf("RunByName = %v, want %s", err, want)
	}
}

// FuzzOptions holds the options contract over arbitrary scalar values:
// Canonical is idempotent, the fingerprint is the canonical form's, the
// engine runs the same configuration for o and its canonical form (up to
// ComputeWorkers, which Canonical erases from the cache key only), and
// Validate gives both the same verdict.
func FuzzOptions(f *testing.F) {
	f.Add(0, 0, 0, 0, 0, 0, int64(0), int64(0), 0, 0, 0.0, false, false, 0, 0, false, false, false, false, 0, 0.0, 0, "", false, int64(0))
	f.Add(3, 1, 1, 8, 4096, 2048, int64(2097152), int64(12), 7, 9, 2.5, false, false, 2, 3, true, true, true, true, 42, 0.25, 4, "native", true, int64(99))
	f.Add(-3, 7, -2, -1, -5, -6, int64(-7), int64(1<<44+1), -2, -9, -1.0, true, true, -1, -4, false, false, false, false, -10, -0.5, -2, "DES", false, int64(-11))
	f.Fuzz(func(t *testing.T, machines, storage, network, cores, chunk, vchunk int, memBudget, memMB int64, batchK, window int,
		alpha float64, disable, always bool, ckpt, fail int, central, combine, rewrite, replicate bool,
		maxIter int, latency float64, workers int, engine string, barrier bool, seed int64) {
		o := Options{
			Machines: machines, Storage: Storage(storage), Network: Network(network), Cores: cores,
			ChunkBytes: chunk, VertexChunkBytes: vchunk, MemBudgetBytes: memBudget, MemoryBudgetMB: memMB,
			BatchK: batchK, WindowOverride: window, Alpha: alpha, DisableStealing: disable, AlwaysSteal: always,
			CheckpointEvery: ckpt, FailAtIteration: fail, CentralDirectory: central, CombineUpdates: combine,
			RewriteEdges: rewrite, ReplicateVertices: replicate, MaxIterations: maxIter, LatencyScale: latency,
			ComputeWorkers: workers, Engine: engine, NativeBarrier: barrier, Seed: seed,
		}
		c := o.Canonical()
		if again := c.Canonical(); again != c {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", c, again)
		}
		if o.Fingerprint() != c.Fingerprint() {
			t.Fatalf("fingerprints differ:\n%s\n%s", o.Fingerprint(), c.Fingerprint())
		}
		got, want := o.config(), c.config()
		got.ComputeWorkers, want.ComputeWorkers = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config differs from the canonical form's:\n%+v\n%+v", got, want)
		}
		if e1, e2 := fmt.Sprint(o.Validate()), fmt.Sprint(c.Validate()); e1 != e2 {
			t.Fatalf("Validate differs: %s vs %s", e1, e2)
		}
	})
}
