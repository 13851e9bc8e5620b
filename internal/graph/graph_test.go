package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

var allFormats = []Format{
	{Compact: true},
	{Compact: true, Weighted: true},
	{Compact: false},
	{Compact: false, Weighted: true},
}

func TestFormatSizes(t *testing.T) {
	want := map[Format]int{
		{Compact: true}:                  8,
		{Compact: true, Weighted: true}:  12,
		{Compact: false}:                 16,
		{Compact: false, Weighted: true}: 20,
	}
	for f, w := range want {
		if got := f.EdgeSize(); got != w {
			t.Errorf("%v EdgeSize = %d, want %d", f, got, w)
		}
	}
}

func TestFormatForMatchesPaperRule(t *testing.T) {
	if f := FormatFor(1<<32-1, false); !f.Compact {
		t.Error("graph just under 2^32 vertices should be compact")
	}
	if f := FormatFor(1<<32, false); f.Compact {
		t.Error("graph with 2^32 vertices must be non-compact")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, f := range allFormats {
		e := Edge{Src: 123456, Dst: 654321, Weight: 3.5}
		buf := make([]byte, f.EdgeSize())
		f.Encode(buf, e)
		got := f.Decode(buf)
		want := e
		if !f.Weighted {
			want.Weight = 0
		}
		if got != want {
			t.Errorf("%v round trip: got %+v want %+v", f, got, want)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	for _, f := range allFormats {
		f := f
		prop := func(src, dst uint32, w float32) bool {
			e := Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: w}
			buf := make([]byte, f.EdgeSize())
			f.Encode(buf, e)
			got := f.Decode(buf)
			if !f.Weighted {
				e.Weight = 0
			}
			// NaN weights compare unequal; compare bit patterns via re-encode.
			buf2 := make([]byte, f.EdgeSize())
			f.Encode(buf2, got)
			return bytes.Equal(buf, buf2) && got.Src == e.Src && got.Dst == e.Dst
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
}

func TestNonCompactCarries64BitIDs(t *testing.T) {
	f := Format{Compact: false}
	e := Edge{Src: 1 << 40, Dst: 1<<40 + 7}
	buf := make([]byte, f.EdgeSize())
	f.Encode(buf, e)
	if got := f.Decode(buf); got.Src != e.Src || got.Dst != e.Dst {
		t.Errorf("64-bit IDs mangled: %+v", got)
	}
}

func TestUndirectedDoublesEdges(t *testing.T) {
	in := []Edge{{Src: 1, Dst: 2, Weight: 5}, {Src: 3, Dst: 4, Weight: 7}}
	out := Undirected(in)
	if len(out) != 4 {
		t.Fatalf("got %d edges, want 4", len(out))
	}
	if out[1] != (Edge{Src: 2, Dst: 1, Weight: 5}) {
		t.Errorf("reverse edge wrong: %+v", out[1])
	}
}

// A self-loop is its own reverse: the undirected view must keep exactly
// one copy, or every self-looping vertex sees its degree (and the loop's
// weight contribution in MCST/SSSP) doubled.
func TestUndirectedEmitsSelfLoopsOnce(t *testing.T) {
	in := []Edge{
		{Src: 0, Dst: 0, Weight: 1},
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 2, Dst: 2, Weight: 3},
		{Src: 2, Dst: 2, Weight: 4}, // parallel self-loops stay distinct
	}
	out := Undirected(in)
	want := []Edge{
		{Src: 0, Dst: 0, Weight: 1},
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 0, Weight: 2},
		{Src: 2, Dst: 2, Weight: 3},
		{Src: 2, Dst: 2, Weight: 4},
	}
	if len(out) != len(want) {
		t.Fatalf("got %d edges %+v, want %d", len(out), out, len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("edge %d: got %+v, want %+v", i, out[i], want[i])
		}
	}
	deg := make(map[VertexID]int)
	for _, e := range out {
		deg[e.Src]++
	}
	if deg[0] != 2 || deg[2] != 2 {
		t.Errorf("self-loop degree doubled: out-degrees %v", deg)
	}
}

func TestMaxVertex(t *testing.T) {
	if got := MaxVertex(nil); got != 0 {
		t.Errorf("empty: %d, want 0", got)
	}
	if got := MaxVertex([]Edge{{Src: 5, Dst: 9}}); got != 10 {
		t.Errorf("got %d, want 10", got)
	}
	if got := MaxVertex([]Edge{{Src: math.MaxUint64}}); got != 0 {
		t.Errorf("vertex 2^64-1: %d, want 0", got)
	}
}

func TestVertexCount(t *testing.T) {
	top := []Edge{{Src: 1, Dst: 0}, {Src: 0, Dst: math.MaxUint64}}
	for _, c := range []struct {
		edges []Edge
		n     uint64
		want  uint64
		err   string
	}{
		{[]Edge{{Src: 5, Dst: 9}}, 0, 10, ""},
		{[]Edge{{Src: 5, Dst: 9}}, 10, 10, ""},
		{[]Edge{{Src: 5, Dst: 9}}, 12, 12, ""},
		{[]Edge{{Src: 5, Dst: 9}}, 9, 0, "an edge names vertex 9, but the graph has 9 vertices"},
		{nil, 0, 0, "empty graph"},
		{nil, 3, 3, ""},
		{top, 0, 0, "an edge names vertex 18446744073709551615, past the largest vertex count"},
		{top, math.MaxUint64, 0, "an edge names vertex 18446744073709551615, but the graph has 18446744073709551615 vertices"},
	} {
		got, err := VertexCount(Edges(c.edges), c.n)
		if msg := fmt.Sprint(err); got != c.want || (c.err == "") != (err == nil) || err != nil && msg != c.err {
			t.Errorf("VertexCount(%v, %d) = %d, %v; want %d, %q", c.edges, c.n, got, err, c.want, c.err)
		}
	}
}

// TestVouchedVertexCount: VertexCount accepts a count at or past the one
// a RecordSource was vouched for without reading a record, for the
// source and for its views, and reads the records for any other: a
// smaller count, or none to infer. The records here name vertex 9 and
// are vouched for 4, so an answer that did not read them shows.
func TestVouchedVertexCount(t *testing.T) {
	f := Format{Compact: true}
	recs, err := Records(f.EncodeEdges(nil, []Edge{{Src: 0, Dst: 1}, {Src: 9, Dst: 2}}), f)
	if err != nil {
		t.Fatal(err)
	}
	recs.Vouch(4)
	for _, src := range []Source{recs, UndirectedView(recs)} {
		for _, c := range []struct {
			n, want uint64
			err     string
		}{
			{4, 4, ""}, // not read
			{6, 6, ""}, // not read
			{3, 0, "an edge names vertex 9, but the graph has 3 vertices"},
			{0, 10, ""},
		} {
			got, err := VertexCount(src, c.n)
			if msg := fmt.Sprint(err); got != c.want || (c.err == "") != (err == nil) || err != nil && msg != c.err {
				t.Errorf("%T: VertexCount(%d) = %d, %v; want %d, %q", src, c.n, got, err, c.want, c.err)
			}
		}
	}
}

// TestCompactRecordLayout: the compact records are the bytes Encode
// writes — as large as a record of their format, each field at the
// offset Encode puts it, 4-aligned (readsInPlace's test in package
// drive) — so on a little-endian host a chunk of them can be read where
// it lies.
func TestCompactRecordLayout(t *testing.T) {
	e := Edge{Src: 0x01020304, Dst: 0x05060708, Weight: 1.5}
	field := func(buf []byte, off uintptr) uint32 { return binary.LittleEndian.Uint32(buf[off:]) }

	var u CompactEdge
	f := Format{Compact: true}
	buf := make([]byte, f.EdgeSize())
	f.Encode(buf, e)
	if unsafe.Sizeof(u) != uintptr(f.EdgeSize()) || unsafe.Alignof(u) != 4 {
		t.Errorf("CompactEdge is %d bytes, %d-aligned; %v records are %d, want 4-aligned", unsafe.Sizeof(u), unsafe.Alignof(u), f, f.EdgeSize())
	}
	if field(buf, unsafe.Offsetof(u.Src)) != uint32(e.Src) || field(buf, unsafe.Offsetof(u.Dst)) != uint32(e.Dst) {
		t.Errorf("CompactEdge's Src and Dst at offsets %d and %d are not where %v writes them", unsafe.Offsetof(u.Src), unsafe.Offsetof(u.Dst), f)
	}

	var w CompactWeightedEdge
	f = Format{Compact: true, Weighted: true}
	buf = make([]byte, f.EdgeSize())
	f.Encode(buf, e)
	if unsafe.Sizeof(w) != uintptr(f.EdgeSize()) || unsafe.Alignof(w) != 4 {
		t.Errorf("CompactWeightedEdge is %d bytes, %d-aligned; %v records are %d, want 4-aligned", unsafe.Sizeof(w), unsafe.Alignof(w), f, f.EdgeSize())
	}
	if field(buf, unsafe.Offsetof(w.Src)) != uint32(e.Src) || field(buf, unsafe.Offsetof(w.Dst)) != uint32(e.Dst) ||
		field(buf, unsafe.Offsetof(w.Weight)) != math.Float32bits(e.Weight) {
		t.Errorf("CompactWeightedEdge's fields at offsets %d, %d and %d are not where %v writes them",
			unsafe.Offsetof(w.Src), unsafe.Offsetof(w.Dst), unsafe.Offsetof(w.Weight), f)
	}
	if u := (CompactEdge{Src: 3, Dst: 4}).Edge(); u != (Edge{Src: 3, Dst: 4}) {
		t.Errorf("CompactEdge.Edge() = %+v", u)
	}
	if w := (CompactWeightedEdge{Src: 3, Dst: 4, Weight: 2}).Edge(); w != (Edge{Src: 3, Dst: 4, Weight: 2}) {
		t.Errorf("CompactWeightedEdge.Edge() = %+v", w)
	}
}

func TestBuildAdjacency(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 2, Dst: 0}}
	a := BuildAdjacency(edges, 0)
	if a.N != 3 {
		t.Errorf("N = %d, want 3", a.N)
	}
	if len(a.Out[0]) != 2 || len(a.Out[1]) != 0 || len(a.Out[2]) != 1 {
		t.Errorf("degrees wrong: %d %d %d", len(a.Out[0]), len(a.Out[1]), len(a.Out[2]))
	}
	if a.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", a.NumEdges())
	}
}

func TestEncodeDecodeEdgesBatch(t *testing.T) {
	f := Format{Compact: true, Weighted: true}
	edges := []Edge{{1, 2, 0.5}, {3, 4, 1.5}, {5, 6, 2.5}}
	buf := f.EncodeEdges(nil, edges)
	got := f.DecodeEdges(nil, buf)
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: got %+v want %+v", i, got[i], edges[i])
		}
	}
}

func TestDecodeEdgesPanicsOnPartialRecord(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on partial record")
		}
	}()
	Format{Compact: true}.DecodeEdges(nil, make([]byte, 9))
}

// TestDecodeEdgesMatchesDecode: DecodeEdges has a straight-line decode per
// format; each must read every record exactly as Decode, the reference,
// does — random bytes, so NaN weights and IDs with every bit set are in.
func TestDecodeEdgesMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range allFormats {
		sz := f.EdgeSize()
		buf := make([]byte, 1000*sz)
		rng.Read(buf)
		prefix := []Edge{{Src: 1, Dst: 2, Weight: 3}}
		got := f.DecodeEdges(prefix, buf)
		if len(got) != 1001 || got[0] != prefix[0] {
			t.Fatalf("%v: decoded %d edges after a 1-edge prefix, first %+v", f, len(got)-1, got[0])
		}
		for i, e := range got[1:] {
			want := f.Decode(buf[i*sz:])
			if e.Src != want.Src || e.Dst != want.Dst || floatBits(e.Weight) != floatBits(want.Weight) {
				t.Fatalf("%v record %d: DecodeEdges %+v, Decode %+v", f, i, e, want)
			}
		}
	}
}
