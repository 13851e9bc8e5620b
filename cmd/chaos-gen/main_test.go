package main

import (
	"bytes"
	"testing"

	"chaos/internal/graph"
	"chaos/internal/rmat"
	"chaos/internal/webgraph"
)

// TestWriteMatchesEncodeEdges: chaos-gen's file is the generator's
// edges as one EncodeEdges of Generate — the same records the service
// registers — whatever the batches and the 1 MiB write buffer cut them
// into (each graph here is several MiB).
func TestWriteMatchesEncodeEdges(t *testing.T) {
	weighted := rmat.New(15, 7)
	weighted.Weighted = true
	for _, tc := range []struct {
		name string
		g    graph.Generator
		want []graph.Edge
	}{
		{"rmat", rmat.New(15, 7), rmat.New(15, 7).Generate()},
		{"rmat weighted", weighted, weighted.Generate()},
		{"web", webgraph.New(1<<15, 7), webgraph.New(1<<15, 7).Generate()},
	} {
		var buf bytes.Buffer
		n, err := write(&buf, tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != len(tc.want) {
			t.Errorf("%s: wrote %d edges, generated %d", tc.name, n, len(tc.want))
		}
		if want := tc.g.Format().EncodeEdges(nil, tc.want); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: wrote %d bytes unlike EncodeEdges(Generate())'s %d", tc.name, buf.Len(), len(want))
		}
	}
}
