// chaos-gen generates binary edge-list files: R-MAT graphs (the synthetic
// workload of the Chaos evaluation, §8) or synthetic web crawls (the Data
// Commons stand-in).
//
// Usage:
//
//	chaos-gen -type rmat -scale 16 -weighted -o graph.bin
//	chaos-gen -type web -pages 100000 -o crawl.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"chaos/internal/cli"
	"chaos/internal/graph"
	"chaos/internal/rmat"
	"chaos/internal/webgraph"
)

func main() {
	logger := cli.NewLogger("chaos-gen")
	var (
		typ      = flag.String("type", "rmat", "graph type: rmat or web")
		scale    = flag.Int("scale", 14, "R-MAT scale (2^scale vertices, 2^(scale+4) edges)")
		pages    = flag.Uint64("pages", 1<<14, "web graph page count")
		weighted = flag.Bool("weighted", false, "attach uniform [0,1) edge weights")
		seed     = flag.Int64("seed", 42, "generator seed")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var f graph.Format
	var each func(func(graph.Edge))
	var nv uint64
	switch *typ {
	case "rmat":
		g := rmat.New(*scale, *seed)
		g.Weighted = *weighted
		f = g.Format()
		each = func(fn func(graph.Edge)) {
			g.Each(graph.NewScratch(), func(batch []graph.Edge) {
				for _, e := range batch {
					fn(e)
				}
			})
		}
		nv = g.NumVertices()
	case "web":
		g := webgraph.New(*pages, *seed)
		f = g.Format()
		each = g.Each
		nv = g.NumVertices()
	default:
		cli.Fatal(logger, "unknown graph type", fmt.Errorf("%q is not a graph type (want rmat or web)", *typ))
	}

	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			cli.Fatal(logger, "creating output", err)
		}
		defer func() {
			if err := file.Close(); err != nil {
				cli.Fatal(logger, "closing output", err)
			}
		}()
		w = file
	}
	ew := graph.NewWriter(w, f)
	each(func(e graph.Edge) {
		if err := ew.WriteEdge(e); err != nil {
			cli.Fatal(logger, "writing edge", err)
		}
	})
	if err := ew.Flush(); err != nil {
		cli.Fatal(logger, "flushing output", err)
	}
	logger.Info("wrote graph", "edges", ew.Count(), "vertices", nv, "format", fmt.Sprint(f))
}
