package service

import (
	"runtime"
	"slices"
	"testing"

	"chaos"
	"chaos/internal/graph"
	"chaos/internal/raceflag"
)

func TestCatalogRegisterAndViews(t *testing.T) {
	c := NewCatalog()
	g, err := c.Register(GraphSpec{Name: "r", Type: "rmat", Scale: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Vertices != 64 || g.EdgeCount != 1024 {
		t.Errorf("graph %+v", g)
	}

	// The graph is held once, as its records; a view is read through
	// them, and View hands out a fresh copy of it.
	u1 := g.View(chaos.ViewUndirected)
	u2 := g.View(chaos.ViewUndirected)
	// Non-loop edges gain a reverse; self-loops are emitted once.
	loops := 0
	for _, e := range g.View(chaos.ViewDirected) {
		if e.Src == e.Dst {
			loops++
		}
	}
	if len(u1) != 2*g.EdgeCount-loops {
		t.Errorf("undirected view has %d edges, want %d", len(u1), 2*g.EdgeCount-loops)
	}
	if &u1[0] == &u2[0] || !slices.Equal(u1, u2) {
		t.Error("two copies of the undirected view share memory or differ")
	}
	if d := g.View(chaos.ViewDirected); len(d) != g.EdgeCount {
		t.Error("directed view must be the raw edge list")
	}
	if a := g.View(chaos.ViewAugmented); len(a) != 2*g.EdgeCount {
		t.Errorf("augmented view has %d edges, want %d", len(a), 2*g.EdgeCount)
	}
	// Unweighted compact records, 8 bytes an edge; the undirected view
	// holds its self-loop index and nothing else.
	if b := g.Bytes(); b.Edges != int64(8*g.EdgeCount) || b.Views <= 0 || b.Views > 64 || b.Bins != 0 {
		t.Errorf("bytes %+v, want %d B of records and a few index bytes", b, 8*g.EdgeCount)
	}

	// Lookup by id, anonymous registration, and listing order.
	if _, ok := c.Get("r"); !ok {
		t.Error("registered graph not found")
	}
	anon, err := c.Register(GraphSpec{Type: "web", Pages: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if anon.ID != "g1" {
		t.Errorf("anonymous id %q, want g1", anon.ID)
	}
	if l := c.List(); len(l) != 2 || l[0].ID != "r" || l[1].ID != "g1" {
		t.Errorf("list %v", l)
	}
}

func TestCatalogRejectsBadSpecs(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Register(GraphSpec{Name: "x", Type: "rmat", Scale: 6}); err != nil {
		t.Fatal(err)
	}
	cases := []GraphSpec{
		{Name: "x", Type: "rmat", Scale: 6},        // duplicate name
		{Name: "bad name", Type: "rmat", Scale: 6}, // invalid name
		{Type: "rmat", Scale: 0},                   // scale out of range
		{Type: "rmat", Scale: 31},                  // scale out of range
		{Type: "web", Pages: 1},                    // too few pages
		{Type: "upload"},                           // no data
		{Type: "upload", Data: []byte{1, 2, 3}},    // truncated record
		{Type: "mystery"},                          // unknown type
	}
	for _, spec := range cases {
		if _, err := c.Register(spec); err == nil {
			t.Errorf("Register(%+v) should fail", spec)
		}
	}
}

// TestCatalogRejectsUndersizedUpload: a declared vertex count smaller
// than the edge list's IDs must be rejected at registration — otherwise
// every job on the graph would crash the engine on an out-of-range
// vertex index.
func TestCatalogRejectsUndersizedUpload(t *testing.T) {
	data := graph.FormatFor(128, false).EncodeEdges(nil, []graph.Edge{{Src: 0, Dst: 100}})
	c := NewCatalog()
	if _, err := c.Register(GraphSpec{Type: "upload", Vertices: 2, Data: data}); err == nil {
		t.Fatal("undersized vertex declaration should be rejected")
	}
	// The same data with a sufficient (or inferred) count registers fine.
	if g, err := c.Register(GraphSpec{Type: "upload", Data: data}); err != nil || g.Vertices != 101 {
		t.Fatalf("inferred upload: %+v, %v", g, err)
	}
}

// TestCatalogHoldsRecords: a weighted RMAT-14 graph with its
// undirected view in use is held as its 12-byte records and the view's
// self-loop index. The edge slice and a copy of the view the catalog
// held before came to more than four times that.
func TestCatalogHoldsRecords(t *testing.T) {
	g, err := NewCatalog().Register(GraphSpec{Type: "rmat", Scale: 14, Weighted: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	und := g.source(chaos.ViewUndirected)
	if und == nil || und.Len() <= g.EdgeCount {
		t.Fatal("no undirected view over the records")
	}
	b := g.Bytes()
	held := b.Edges + b.Views
	copies := int64(g.EdgeCount+und.Len()) * 24 // []Edge and its undirected copy
	t.Logf("records %d B + index %d B = %d B; edge slice and undirected copy %d B (%.1fx)", b.Edges, b.Views, held, copies, float64(copies)/float64(held))
	if b.Edges != int64(12*g.EdgeCount) {
		t.Errorf("records %d B, want 12 per edge (%d)", b.Edges, 12*g.EdgeCount)
	}
	if 4*held > copies {
		t.Errorf("the graph holds %d B, over a quarter of the %d B the copies held", held, copies)
	}
}

// TestRegisterAllocatesAboutItsRecords: registering a weighted RMAT-14
// graph allocates little beyond the 12-byte records it keeps, because
// generation encodes the edges a batch at a time. Generating the graph
// as a slice of 24-byte Edges and encoding that came to about three
// times the records.
func TestRegisterAllocatesAboutItsRecords(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	c := NewCatalog()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := c.Register(GraphSpec{Type: "rmat", Scale: 14, Weighted: true, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	records := g.Bytes().Edges
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("records %d B, registration allocated %d B (%.2fx)", records, allocated, float64(allocated)/float64(records))
	if float64(allocated) > 1.25*float64(records) {
		t.Errorf("registration allocated %d B, over 1.25x the %d B of records it keeps", allocated, records)
	}
}

// TestRejectedNameBuildsNoGraph: a registration whose name is invalid or
// taken fails before the graph is generated, so it allocates a small
// fraction of the records it would have built.
func TestRejectedNameBuildsNoGraph(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	c := NewCatalog()
	spec := GraphSpec{Name: "taken", Type: "rmat", Scale: 16, Weighted: true, Seed: 1}
	g, err := c.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	records := g.Bytes().Edges
	bad := spec
	bad.Name = "-invalid"
	for _, rejected := range []GraphSpec{spec, bad} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Register(rejected)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("registering %q succeeded", rejected.Name)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > uint64(records)/100 {
			t.Errorf("rejecting %q allocated %d B, want under 1%% of the %d B of records", rejected.Name, allocated, records)
		}
	}
}
