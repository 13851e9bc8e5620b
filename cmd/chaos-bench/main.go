// chaos-bench regenerates the tables and figures of the Chaos evaluation
// (SOSP 2015) on the simulated cluster. Each experiment prints the same
// rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	chaos-bench                     # run everything at laboratory scale
//	chaos-bench -experiment fig16   # just the batch-factor sweep
//	chaos-bench -experiment native  # native plane vs DES wall-clock; exits non-zero if native loses
//	chaos-bench -quick              # reduced smoke scale
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"chaos"
	"chaos/internal/cli"
	"chaos/internal/experiments"
)

func main() {
	logger := cli.NewLogger("chaos-bench")
	var (
		which      = flag.String("experiment", "all", "experiment id: all or one of "+strings.Join(experiments.IDs(), " "))
		quick      = flag.Bool("quick", false, "use the reduced smoke scale")
		storage    = flag.String("storage", "ssd", "default storage device: ssd or hdd")
		network    = flag.String("network", "40g", "default network: 40g or 1g")
		workers    = flag.Int("workers", 0, "engine compute workers (0 = GOMAXPROCS); results are identical for every value")
		cpuProfile = flag.String("cpuprofile", "",
			"write a runtime/pprof CPU profile of the experiments' timed region to this file (setup and flag parsing excluded)")
		memProfile = flag.String("memprofile", "",
			"write a runtime/pprof allocs profile to this file after the experiments finish (records every allocation since program start, so iteration-loop hot spots dominate)")
	)
	flag.Parse()

	// Hardware names go through the same helpers as chaos-run and
	// chaos-serve, so a typo fails with the identical message everywhere.
	_, hw, err := chaos.ParseOptions("", *storage, *network, chaos.Options{})
	if err != nil {
		cli.Fatal(logger, "parsing options", err)
	}

	scale := experiments.Lab
	if *quick {
		scale = experiments.Quick
	}
	scale.Storage, scale.Network = hw.Storage, hw.Network
	scale.ComputeWorkers = *workers
	// Profiling brackets exactly the experiments' timed region, so
	// "profile-driven" is reproducible by anyone: chaos-bench
	// -experiment native -cpuprofile cpu.pb.gz, then go tool pprof (see
	// EXPERIMENTS.md).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cli.Fatal(logger, "creating cpu profile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fatal(logger, "starting cpu profile", err)
		}
		defer pprof.StopCPUProfile()
	}
	ran := 0
	for _, e := range experiments.All {
		if *which != "all" && e.ID != *which {
			continue
		}
		if _, err := e.Run(os.Stdout, scale); err != nil {
			cli.Fatal(logger, e.ID, err)
		}
		ran++
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			cli.Fatal(logger, "creating mem profile", err)
		}
		runtime.GC() // settle live objects so alloc_space dominates the view
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			cli.Fatal(logger, "writing mem profile", err)
		}
		f.Close()
	}
	if ran == 0 {
		cli.Fatal(logger, "unknown experiment", fmt.Errorf(
			"%q is not an experiment (want all or one of %s)", *which, strings.Join(experiments.IDs(), " ")))
	}
	fmt.Println()
}
