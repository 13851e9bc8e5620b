package service

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"chaos"
	"chaos/internal/graph"
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

	// Views are converted once and cached: the second call returns the
	// same backing slice.
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
	if &u1[0] != &u2[0] {
		t.Error("undirected view was recomputed instead of cached")
	}
	if d := g.View(chaos.ViewDirected); len(d) != g.EdgeCount {
		t.Error("directed view must be the raw edge slice")
	}
	views := g.CachedViews()
	if len(views) != 2 { // directed + undirected; augmented untouched
		t.Errorf("cached views %v", views)
	}
	// The views live in a map; the listing is sorted.
	g.View(chaos.ViewAugmented)
	if views := g.CachedViews(); !slices.Equal(views, []string{"augmented", "directed", "undirected"}) {
		t.Errorf("cached views %v, want augmented, directed, undirected", views)
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
	var buf bytes.Buffer
	w := graph.NewWriter(&buf, graph.FormatFor(128, false))
	if err := w.WriteEdge(graph.Edge{Src: 0, Dst: 100}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if _, err := c.Register(GraphSpec{Type: "upload", Vertices: 2, Data: buf.Bytes()}); err == nil {
		t.Fatal("undersized vertex declaration should be rejected")
	}
	// The same data with a sufficient (or inferred) count registers fine.
	if g, err := c.Register(GraphSpec{Type: "upload", Data: buf.Bytes()}); err != nil || g.Vertices != 101 {
		t.Fatalf("inferred upload: %+v, %v", g, err)
	}
}

// TestViewConvertsOutsideLock holds a view conversion open: Info (and
// with it GET /v1/graphs) answers meanwhile, the view is not listed as
// cached until it exists, and a second caller waits for the one
// conversion instead of starting its own.
func TestViewConvertsOutsideLock(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var conversions atomic.Int32
	applyView = func(v chaos.View, edges []chaos.Edge) []chaos.Edge {
		conversions.Add(1)
		close(started)
		<-release
		return v.Apply(edges)
	}
	t.Cleanup(func() { applyView = chaos.View.Apply })

	g, err := NewCatalog().Register(GraphSpec{Type: "rmat", Scale: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	views := make(chan []chaos.Edge, 2)
	go func() { views <- g.View(chaos.ViewUndirected) }()
	<-started
	go func() { views <- g.View(chaos.ViewUndirected) }()

	info := make(chan GraphInfo)
	go func() { info <- g.Info() }()
	select {
	case got := <-info:
		if !slices.Equal(got.CachedViews, []string{"directed"}) || got.Bytes.Views != 0 {
			t.Errorf("mid-conversion info lists %v, %d view bytes; want only the directed view", got.CachedViews, got.Bytes.Views)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Info blocked behind a view conversion")
	}
	close(release)
	first, second := <-views, <-views
	if n := conversions.Load(); n != 1 {
		t.Fatalf("%d conversions of one view, want 1", n)
	}
	if len(first) == 0 || &first[0] != &second[0] {
		t.Error("the two callers got different views")
	}
	if b := g.Info().Bytes; b.Views != int64(len(first))*edgeBytes || b.Edges != int64(g.EdgeCount)*edgeBytes {
		t.Errorf("bytes %+v after the conversion", b)
	}
}
