package experiments

import (
	"fmt"
	"time"

	"chaos"
)

// nativeVsDES compares the native execution plane against the DES driver
// on the same graphs: identical algorithm, partitioning and seed, the
// two drivers' host wall-clock side by side, plus the DES arm's
// simulated seconds for reference. Its error is the verdict CI reads:
// running the protocol without the simulator is never slower than
// running it under the simulator. Wall-clock trajectories live in
// bench/ (native-inmem-pr, native-oocore-pr), not here.
func nativeVsDES(r *report, s Scale) error {
	const alg = "PR"
	edges, n := graphFor(alg, s.StrongScale)

	// One external clock around each whole call (setup and value
	// collection included) so the verdict compares identical measurement
	// scopes — Report.WallSeconds covers only the native driver's
	// execute loop.
	timed := func(opt chaos.Options) (*chaos.Report, float64, error) {
		t0 := time.Now()
		rep, err := chaos.RunByName(alg, edges, n, opt)
		return rep, time.Since(t0).Seconds(), err
	}
	var desWall, natWall, desSim []float64
	var desTotal, natTotal float64
	for _, m := range s.Machines {
		opt := s.options(m, n)
		rep, wall, err := timed(opt)
		if err != nil {
			return err
		}
		desWall, desSim = append(desWall, wall), append(desSim, rep.SimulatedSeconds)
		desTotal += wall

		opt.Engine = chaos.EngineNative
		if _, wall, err = timed(opt); err != nil {
			return err
		}
		natWall = append(natWall, wall)
		natTotal += wall
	}

	r.xAxis("machines", s.Machines)
	r.series("des wall s", desWall, "%8.3f")
	r.series("native wall s", natWall, "%8.3f")
	r.series("des simulated s", desSim, "%8.3f")
	r.row("  native speedup  %.1fx on host wall-clock (%.3fs vs %.3fs)",
		desTotal/natTotal, natTotal, desTotal)
	r.row("  results identical up to float fold order; simulated figures remain DES-only")
	return nativeVerdict(desTotal, natTotal)
}

// nativeVerdict fails the native experiment when the native plane's
// summed wall-clock exceeds the DES driver's on the same graphs. The
// margin is structural — the DES serializes every event through one
// scheduler — so a loss on any host is a regression, not noise.
func nativeVerdict(desWall, natWall float64) error {
	if natWall > desWall {
		return fmt.Errorf("experiments: native plane lost to the DES driver on host wall-clock (%.3fs vs %.3fs)", natWall, desWall)
	}
	return nil
}
