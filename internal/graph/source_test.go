package graph_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
)

var fuzzFormats = []graph.Format{
	{Compact: true},
	{Compact: true, Weighted: true},
	{Compact: false},
	{Compact: false, Weighted: true},
}

// undirectedLoop and augmentLoop are the materializing loops the view
// sources replaced, kept as the oracle the sources are held to.
func undirectedLoop(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			out = append(out, e)
			continue
		}
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return out
}

func augmentLoop(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, graph.Edge{Src: e.Src, Dst: e.Dst, Weight: 0}, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: 1})
	}
	return out
}

// sameEdges compares weights bit for bit, so NaN payloads count.
func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || math.Float32bits(a[i].Weight) != math.Float32bits(b[i].Weight) {
			return false
		}
	}
	return true
}

// rangeOf collects src's edges [lo, hi) through a scratch of n edges.
func rangeOf(src graph.Source, lo, hi, n int) []graph.Edge {
	var out []graph.Edge
	src.Range(lo, hi, make([]graph.Edge, n), func(batch []graph.Edge) { out = append(out, batch...) })
	return out
}

// FuzzReadEdges feeds the record reader bytes a client uploaded, in
// every format. Its oracle is a per-record loop of Format.Decode, the
// reference the bulk codec is held to. Records refuses the bytes exactly
// when they end in a partial record; otherwise it reads the oracle's
// edges, weights bit for bit (NaN payloads included), and so does
// Format.DecodeEdges. Format.EncodeEdges, which every generated graph is
// written with, writes those edges back after a prefix byte for byte, as
// a per-record Format.Encode does. A range of the undirected and
// augmented views, picked and read through a scratch sized by the input,
// is that slice of the materialized view.
func FuzzReadEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xff, 0x7f, 0xc0, 0x01}, 15))
	for _, format := range fuzzFormats {
		f.Add(format.EncodeEdges(nil, []graph.Edge{{Src: 1, Dst: 2, Weight: 0.5}, {Src: 1 << 31, Dst: 0, Weight: -3}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range fuzzFormats {
			sz := format.EdgeSize()
			src, err := graph.Records(data, format)
			if partial := len(data)%sz != 0; partial != (err != nil) {
				t.Fatalf("%v: %d bytes: err = %v", format, len(data), err)
			}
			if err != nil {
				continue
			}
			edges := make([]graph.Edge, len(data)/sz)
			rewrite := make([]byte, len(data))
			for j := range edges {
				edges[j] = format.Decode(data[j*sz:])
				format.Encode(rewrite[j*sz:], edges[j])
			}
			if !bytes.Equal(rewrite, data) {
				t.Fatalf("%v: re-encoding %d edges record by record changed the bytes", format, len(edges))
			}
			if got := graph.Collect(src); !sameEdges(got, edges) {
				t.Fatalf("%v: the record source read %d edges unlike Decode's %d", format, len(got), len(edges))
			}
			if dec := format.DecodeEdges(nil, data); !sameEdges(dec, edges) {
				t.Fatalf("%v: DecodeEdges read %d edges unlike Decode's %d", format, len(dec), len(edges))
			}
			if enc := format.EncodeEdges([]byte{7}, edges); enc[0] != 7 || !bytes.Equal(enc[1:], data) {
				t.Fatalf("%v: EncodeEdges after a 1-byte prefix changed the bytes", format)
			}
			for _, v := range []struct {
				name string
				src  graph.Source
				want []graph.Edge
			}{
				{"undirected", graph.UndirectedView(src), undirectedLoop(edges)},
				{"augmented", algorithms.AugmentedView(src), augmentLoop(edges)},
			} {
				n := len(v.want)
				if v.src.Len() != n {
					t.Fatalf("%v: %s view of %d edges, want %d", format, v.name, v.src.Len(), n)
				}
				lo, hi := 0, n
				if len(data) > 0 {
					lo = int(data[0]) % (n + 1)
					hi = lo + int(data[len(data)-1])%(n-lo+1)
				}
				scratch := graph.MinScratch + len(data)%11
				if got := rangeOf(v.src, lo, hi, scratch); !sameEdges(got, v.want[lo:hi]) {
					t.Fatalf("%v: %s view [%d, %d) through %d scratch edges read %+v, want %+v", format, v.name, lo, hi, scratch, got, v.want[lo:hi])
				}
			}
		}
	})
}

// loopy is n edges with self-loops in runs and at scattered places, so
// a view's self-loop index has blocks with none, one and many.
func loopy(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		src, dst := graph.VertexID(i%97), graph.VertexID((i*31+5)%89)
		if i%7 == 0 || (i >= 500 && i < 800) || i%256 == 255 {
			dst = src
		}
		edges[i] = graph.Edge{Src: src, Dst: dst, Weight: float32(i)}
	}
	return edges
}

// TestViewRangesMatchMaterialized reads ranges that start and end on
// and around the self-loop index's block boundaries, over an edge slice
// and over its records, and through short and long scratch buffers.
func TestViewRangesMatchMaterialized(t *testing.T) {
	edges := loopy(3000)
	f := graph.Format{Compact: true, Weighted: true}
	recs, err := graph.Records(f.EncodeEdges(nil, edges), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []graph.Source{graph.Edges(edges), recs} {
		for _, v := range []struct {
			name string
			src  graph.Source
			want []graph.Edge
		}{
			{"undirected", graph.UndirectedView(base), undirectedLoop(edges)},
			{"augmented", algorithms.AugmentedView(base), augmentLoop(edges)},
		} {
			n := v.src.Len()
			if !sameEdges(graph.Collect(v.src), v.want) {
				t.Fatalf("%s view of %T: Collect differs from the materializing loop", v.name, base)
			}
			// VertexCount reads a view's base: the count and the refusal
			// are the materialized view's.
			for _, declared := range []uint64{0, 96, 97} {
				got, gerr := graph.VertexCount(v.src, declared)
				want, werr := graph.VertexCount(graph.Edges(v.want), declared)
				if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s view of %T, %d vertices declared: VertexCount %d, %v; over the materialized view %d, %v", v.name, base, declared, got, gerr, want, werr)
				}
			}
			cuts := []int{0, 1, 2, 255, 256, 257, 511, 512, 513, 999, 1000, 1001, 1600, n - 1, n}
			for _, lo := range cuts {
				for _, hi := range cuts {
					if hi < lo {
						continue
					}
					for _, scratch := range []int{graph.MinScratch, 64, 1 << 10} {
						if got := rangeOf(v.src, lo, hi, scratch); !sameEdges(got, v.want[lo:hi]) {
							t.Fatalf("%s view of %T [%d, %d) through %d scratch edges: %d edges unlike the loop's %d", v.name, base, lo, hi, scratch, len(got), hi-lo)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentRange: machines read one records-backed undirected
// view at once, each through its own scratch, as the native plane's
// pre-processing does.
func TestConcurrentRange(t *testing.T) {
	edges := loopy(5000)
	f := graph.Format{Compact: true}
	recs, err := graph.Records(f.EncodeEdges(nil, edges), f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		edges[i].Weight = 0 // unweighted records carry none
	}
	src, want := graph.UndirectedView(recs), undirectedLoop(edges)
	const readers = 4
	per := (src.Len() + readers - 1) / readers
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for m := 0; m < readers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			scratch := graph.NewScratch()
			lo, hi := m*per, min((m+1)*per, src.Len())
			for round := 0; round < 20; round++ {
				at := lo
				ok := true
				src.Range(lo, hi, scratch, func(batch []graph.Edge) {
					ok = ok && sameEdges(batch, want[at:at+len(batch)])
					at += len(batch)
				})
				if !ok || at != hi {
					errs <- fmt.Sprintf("reader %d round %d: [%d, %d) read wrong edges or stopped at %d", m, round, lo, hi, at)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSourcesArePointers: a bin cache compares sources with ==, which
// panics on an incomparable dynamic type; every source is a pointer,
// equal only to itself.
func TestSourcesArePointers(t *testing.T) {
	edges := loopy(10)
	recs, err := graph.Records(graph.Format{Compact: true}.EncodeEdges(nil, edges), graph.Format{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.Source{graph.Edges(edges), recs, graph.UndirectedView(recs), algorithms.AugmentedView(recs)}
	for i, a := range sources {
		if k := reflect.TypeOf(a).Kind(); k != reflect.Pointer {
			t.Errorf("%T is a %v, want a pointer", a, k)
		}
		for j, b := range sources {
			if (a == b) != (i == j) {
				t.Errorf("%T == %T is %v", a, b, a == b)
			}
		}
	}
	if graph.Edges(edges) == graph.Source(graph.Edges(edges)) {
		t.Error("two sources over one slice are equal")
	}
}
