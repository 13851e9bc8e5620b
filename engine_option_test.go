package chaos

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestParseEngine(t *testing.T) {
	for _, in := range []string{"", "sim", "des", "SIM", "Des"} {
		if got, err := ParseEngine(in); err != nil || got != EngineSim {
			t.Errorf("ParseEngine(%q) = %q, %v; want sim", in, got, err)
		}
	}
	for _, in := range []string{"native", "Native", "NATIVE"} {
		if got, err := ParseEngine(in); err != nil || got != EngineNative {
			t.Errorf("ParseEngine(%q) = %q, %v; want native", in, got, err)
		}
	}
	if _, err := ParseEngine("turbo"); err == nil {
		t.Error("ParseEngine(turbo) should error")
	}
}

func TestEngineFingerprint(t *testing.T) {
	base := Options{}.Fingerprint()
	if (Options{Engine: EngineNative}).Fingerprint() == base {
		t.Error("native engine must not share the sim cache entry")
	}
	// Aliases of the default fold into it.
	if (Options{Engine: "des"}).Fingerprint() != base {
		t.Error("engine alias des should canonicalize to sim")
	}
	if (Options{Engine: "sim"}).Fingerprint() != base {
		t.Error("explicit sim should equal the default")
	}
	if (Options{Engine: EngineNative}).Canonical().Engine != EngineNative {
		t.Error("canonical form lost the native engine")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	edges := GenerateRMAT(5, false, 1)
	opt := labOptions(1)
	opt.Engine = "turbo"
	if _, err := RunByName("PR", edges, 0, opt); err == nil {
		t.Fatal("unknown engine should fail the run")
	}
}

// TestUndersizedVertexCountFailsTheRun: a vertex count smaller than the
// edges need is the caller's error, reported by both engines before they
// start, naming the vertex — not an index panic inside pre-processing,
// which takes the whole process down.
func TestUndersizedVertexCountFailsTheRun(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 9, Dst: 3}, {Src: 2, Dst: 0}}
	for _, engine := range []string{EngineSim, EngineNative} {
		opt := labOptions(2)
		opt.Engine = engine
		_, _, err := RunPreparedContext(context.Background(), "PR", edges, 4, opt)
		if err == nil || !strings.Contains(err.Error(), "vertex 9") {
			t.Errorf("%s: 4 vertices for an edge from vertex 9: err = %v, want one naming vertex 9", engine, err)
		}
	}
	// The largest ID: one past it is no count at all, given or inferred.
	top := []Edge{{Src: 0, Dst: 1}, {Src: math.MaxUint64, Dst: 0}}
	for _, engine := range []string{EngineSim, EngineNative} {
		for _, n := range []uint64{4, 0} {
			opt := labOptions(2)
			opt.Engine = engine
			_, _, err := RunPreparedContext(context.Background(), "PR", top, n, opt)
			if err == nil || !strings.Contains(err.Error(), "vertex 18446744073709551615") {
				t.Errorf("%s: %d vertices for an edge from vertex 2^64-1: err = %v, want one naming it", engine, n, err)
			}
		}
	}
}

// TestNativeEngineEndToEnd drives the native execution plane through the
// public API and checks the report's engine-specific shape plus summary
// agreement with the DES driver on the same graph.
func TestNativeEngineEndToEnd(t *testing.T) {
	for _, alg := range []string{"BFS", "PR", "WCC"} {
		edges := GenerateRMAT(6, NeedsWeights(alg), 42)
		simOpt := labOptions(2)
		natOpt := simOpt
		natOpt.Engine = EngineNative

		simRes, simRep, err := RunByNameResult(alg, edges, 0, simOpt)
		if err != nil {
			t.Fatalf("%s sim: %v", alg, err)
		}
		natRes, natRep, err := RunByNameResult(alg, edges, 0, natOpt)
		if err != nil {
			t.Fatalf("%s native: %v", alg, err)
		}
		if simRep.Engine != EngineSim || simRep.WallSeconds != 0 {
			t.Errorf("%s: sim report engine fields wrong: %+v", alg, simRep)
		}
		if natRep.Engine != EngineNative {
			t.Errorf("%s: native report says engine %q", alg, natRep.Engine)
		}
		if natRep.WallSeconds <= 0 {
			t.Errorf("%s: native report has no wall-clock", alg)
		}
		if natRep.SimulatedSeconds != 0 || natRep.PreprocessSeconds != 0 {
			t.Errorf("%s: native report claims simulated time: %+v", alg, natRep)
		}
		if natRep.BytesRead == 0 || natRep.Iterations == 0 {
			t.Errorf("%s: native report not populated: %+v", alg, natRep)
		}
		if natRes.Vertices != simRes.Vertices {
			t.Errorf("%s: vertex counts differ: %d vs %d", alg, natRes.Vertices, simRes.Vertices)
		}
		for k, sv := range simRes.Summary {
			nv, ok := natRes.Summary[k]
			if !ok {
				t.Errorf("%s: native summary lacks %q", alg, k)
				continue
			}
			if math.Abs(nv-sv) > 1e-4*math.Max(1, math.Abs(sv)) {
				t.Errorf("%s: summary %q differs: sim %g vs native %g", alg, k, sv, nv)
			}
		}
	}
}

// TestNativeEngineCancelAndProgress checks the native driver honors the
// same context contract as the DES driver — cancellation at an iteration
// boundary surfaces ctx.Err() — and that its progress ticks carry
// wall-clock, never simulated seconds.
func TestNativeEngineCancelAndProgress(t *testing.T) {
	edges := GenerateRMAT(6, false, 7)
	opt := labOptions(2)
	opt.Engine = EngineNative

	var ticks []Progress
	ctx, cancel := context.WithCancel(context.Background())
	ctx = WithProgress(ctx, func(p Progress) {
		ticks = append(ticks, p)
		if len(ticks) == 1 {
			cancel() // observed at the next iteration boundary
		}
	})
	_, _, err := RunPreparedContext(ctx, "PR", edges, 0, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ticks) < 1 {
		t.Fatal("no progress ticks before cancellation")
	}
	for _, p := range ticks {
		if p.SimulatedSeconds != 0 {
			t.Errorf("native tick claims simulated seconds: %+v", p)
		}
		if p.WallSeconds <= 0 {
			t.Errorf("native tick lacks wall-clock: %+v", p)
		}
	}
}
