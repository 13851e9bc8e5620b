// Emission/listing order in this file must be byte-stable across runs:
// chaos-vet's detrange analyzer checks every map iteration below.
//
//chaos:sorted-maps
package experiments

import (
	"fmt"
	"time"

	"chaos"
)

// nativeVsDES compares the native execution plane against the DES driver
// on the same graphs: identical algorithm, partitioning and seed, the
// two drivers' host wall-clock side by side, plus the DES arm's
// simulated seconds for reference. It backs the CI assertion that
// running the protocol without the simulator is never slower than
// running it under the simulator. Emits BENCH_native.json.
func nativeVsDES(r *report, s Scale) error {
	const alg = "PR"
	edges, n := graphFor(alg, s.StrongScale)
	rec := s.newBenchRecord(NativeID)

	des := BenchArm{Name: "des"}
	nat := BenchArm{Name: "native"}
	bar := BenchArm{Name: "native-barrier"}
	var desWall, natWall, barWall float64
	for _, m := range s.Machines {
		opt := s.options(m, n)

		t0 := time.Now()
		rep, err := chaos.RunByName(alg, edges, n, opt)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		des.Machines = append(des.Machines, m)
		des.SimulatedSeconds = append(des.SimulatedSeconds, rep.SimulatedSeconds)
		des.WallSecondsPerPoint = append(des.WallSecondsPerPoint, wall)
		desWall += wall

		// Same external clock as the DES arm (around the whole call,
		// setup and value collection included) so the CI-asserted
		// verdict compares identical measurement scopes —
		// Report.WallSeconds covers only the driver's execute loop.
		opt.Engine = chaos.EngineNative
		t0 = time.Now()
		if _, err := chaos.RunByName(alg, edges, n, opt); err != nil {
			return err
		}
		wall = time.Since(t0).Seconds()
		nat.Machines = append(nat.Machines, m)
		nat.SimulatedSeconds = append(nat.SimulatedSeconds, 0) // no virtual clock
		nat.WallSecondsPerPoint = append(nat.WallSecondsPerPoint, wall)
		natWall += wall

		// The same native run under the barrier-per-phase layout: the
		// A/B pair that prices the streamed scatter→gather boundary.
		// Values are bit-identical; only the phase schedule differs.
		opt.NativeBarrier = true
		t0 = time.Now()
		if _, err := chaos.RunByName(alg, edges, n, opt); err != nil {
			return err
		}
		wall = time.Since(t0).Seconds()
		bar.Machines = append(bar.Machines, m)
		bar.SimulatedSeconds = append(bar.SimulatedSeconds, 0)
		bar.WallSecondsPerPoint = append(bar.WallSecondsPerPoint, wall)
		barWall += wall
	}
	des.WallSeconds, nat.WallSeconds, bar.WallSeconds = desWall, natWall, barWall
	// The pipelined layout is the default because it wins (or at worst
	// ties) the barrier layout: fail loudly if it loses past a noise
	// envelope, so a regression that makes streaming a pessimization
	// cannot hide inside a green record. The envelope is generous —
	// single-core quick runs measure scheduler noise, and the pipeline's
	// overlap only pays off with real parallelism — but an inversion
	// past 25%+0.5s is structural, not noise.
	if natWall > barWall*1.25+0.5 {
		return fmt.Errorf("experiments: pipelined native plane lost to the barrier layout (%.3fs vs %.3fs)", natWall, barWall)
	}

	// Out-of-core arms: the native plane once more over a graph big
	// enough that a 1 MiB update budget forces real spill-file traffic,
	// beside an unlimited (zero-copy, all in memory) run of the same
	// graph. The pair prices the spill round-trip — encode, write, read
	// back, decode — against the typed fast path; results are identical
	// either way, so only wall-clock separates the arms.
	oocScale := s.StrongScale
	if oocScale < 14 {
		oocScale = 14
	}
	oocEdges, oocN := graphFor(alg, oocScale)
	fast := BenchArm{Name: "native-zerocopy"}
	ooc := BenchArm{Name: "oocore"}
	var fastWall, oocWall float64
	for _, m := range s.Machines {
		opt := s.options(m, oocN)
		opt.Engine = chaos.EngineNative

		t0 := time.Now()
		if _, err := chaos.RunByName(alg, oocEdges, oocN, opt); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		fast.Machines = append(fast.Machines, m)
		fast.SimulatedSeconds = append(fast.SimulatedSeconds, 0)
		fast.WallSecondsPerPoint = append(fast.WallSecondsPerPoint, wall)
		fastWall += wall

		opt.MemoryBudgetMB = 1
		t0 = time.Now()
		rep, err := chaos.RunByName(alg, oocEdges, oocN, opt)
		if err != nil {
			return err
		}
		wall = time.Since(t0).Seconds()
		if rep.SpillBytes == 0 {
			return fmt.Errorf("experiments: oocore arm at m=%d did not spill (budget no longer binding at scale %d)", m, oocScale)
		}
		ooc.Machines = append(ooc.Machines, m)
		ooc.SimulatedSeconds = append(ooc.SimulatedSeconds, 0)
		ooc.WallSecondsPerPoint = append(ooc.WallSecondsPerPoint, wall)
		ooc.SpillBytesPerPoint = append(ooc.SpillBytesPerPoint, rep.SpillBytes)
		oocWall += wall
	}
	fast.WallSeconds, ooc.WallSeconds = fastWall, oocWall

	r.xAxis("machines", des.Machines)
	r.series("des wall s", des.WallSecondsPerPoint, "%8.3f")
	r.series("native wall s", nat.WallSecondsPerPoint, "%8.3f")
	r.series("barrier wall s", bar.WallSecondsPerPoint, "%8.3f")
	r.series("des simulated s", des.SimulatedSeconds, "%8.3f")
	if natWall > 0 {
		r.row("  native speedup  %.1fx on host wall-clock (%.3fs vs %.3fs)",
			desWall/natWall, natWall, desWall)
		r.row("  pipeline vs barrier  %.2fx (%.3fs pipelined vs %.3fs barrier)",
			barWall/natWall, natWall, barWall)
	}
	r.row("  results identical up to float fold order; simulated figures remain DES-only")
	r.row("  out-of-core (RMAT-%d, 1 MiB update budget):", oocScale)
	r.series("zero-copy wall s", fast.WallSecondsPerPoint, "%8.3f")
	r.series("oocore wall s", ooc.WallSecondsPerPoint, "%8.3f")
	if oocWall > 0 {
		r.row("  spill overhead  %.1fx wall-clock vs zero-copy (%.3fs vs %.3fs)",
			oocWall/fastWall, oocWall, fastWall)
	}

	rec.Arms = []BenchArm{des, nat, bar, fast, ooc}
	rec.WallSeconds = desWall + natWall + barWall + fastWall + oocWall
	verdict := natWall <= desWall
	rec.NativeBeatsDES = &verdict
	return s.emitBench(rec)
}
