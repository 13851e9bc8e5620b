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
	"bufio"
	"flag"
	"fmt"
	"io"
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

	var g graph.Generator
	switch *typ {
	case "rmat":
		if err := rmat.CheckScale(*scale); err != nil {
			cli.Fatal(logger, "checking scale", err)
		}
		rg := rmat.New(*scale, *seed)
		rg.Weighted = *weighted
		g = rg
	case "web":
		g = webgraph.New(*pages, *seed)
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
	edges, err := write(w, g)
	if err != nil {
		cli.Fatal(logger, "writing output", err)
	}
	logger.Info("wrote graph", "edges", edges, "vertices", g.NumVertices(), "format", fmt.Sprint(g.Format()))
}

// write encodes g's edges to w as §8 records, a batch at a time, and
// returns how many it wrote.
func write(w io.Writer, g graph.Generator) (edges int, err error) {
	f := g.Format()
	bw := bufio.NewWriterSize(w, 1<<20)
	g.Each(graph.NewScratch(), func(batch []graph.Edge) {
		if err == nil {
			_, err = bw.Write(f.EncodeEdges(bw.AvailableBuffer(), batch))
			edges += len(batch)
		}
	})
	if err != nil {
		return edges, err
	}
	return edges, bw.Flush()
}
