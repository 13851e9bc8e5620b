package service

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"
	"unsafe"

	"chaos"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
)

// GraphSpec describes a graph to register. Type selects the source:
//
//   - "rmat": GenerateRMAT(Scale, Weighted, Seed)
//   - "web":  GenerateWebGraph(Pages, Seed)
//   - "upload": Data holds a chaos-gen binary edge list (base64 in JSON),
//     with Vertices the declared vertex count (0 = infer) and Weighted
//     describing the record format.
type GraphSpec struct {
	Name     string `json:"name,omitempty"`
	Type     string `json:"type"`
	Scale    int    `json:"scale,omitempty"`
	Pages    uint64 `json:"pages,omitempty"`
	Weighted bool   `json:"weighted,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Vertices uint64 `json:"vertices,omitempty"`
	Data     []byte `json:"data,omitempty"`
}

// Graph is a registered graph: the materialized edge slice plus lazily
// cached views and, per view handed to a native job, its pre-processing
// output (§3), all shared read-only by every job that references it.
//
// A graph restored from the durable log starts unmaterialized: only its
// metadata (and, for uploads, the persisted edge-list file) came back
// from disk, and `load` regenerates the edge slice on first use. The
// generated graph types are deterministic functions of their spec, so
// re-materialization is exact; uploads re-read their persisted payload.
type Graph struct {
	ID         string
	Type       string
	Weighted   bool
	Vertices   uint64
	EdgeCount  int
	Registered time.Time

	// spec is the registration request with any upload payload
	// stripped; it is what the durable log records so the graph can be
	// rebuilt after a restart.
	spec GraphSpec
	// load materializes the edge slice for restored graphs (nil once
	// edges is set, or for graphs registered in this process).
	load func() ([]chaos.Edge, error)

	// loadMu serializes materialization only; g.mu guards the quick
	// state reads (edges pointer, views and bin caches) and is never
	// held across generation, conversion, binning or file IO, so
	// Info/List stay responsive while a big graph is worked on.
	loadMu sync.Mutex
	mu     sync.Mutex
	edges  []chaos.Edge // nil for a restored graph until ensure()
	views  map[chaos.View]*viewSlot
	// bins holds the bin sets of every native job's view, at most
	// drive.MaxBinSets for the whole graph, least recently used out
	// first; binCaches binds it to each view's edge slice.
	bins      *drive.BinStore
	binCaches map[chaos.View]*chaos.BinCache
	// persisted means the registration has reached the durable log. A
	// snapshot captured in the window between catalog insertion and the
	// journal append must skip the graph: if persisting then fails, the
	// registration is rolled back and reported 500, and a snapshot that
	// had captured it would resurrect it on restart.
	persisted bool
}

// markPersisted records that the durable log holds this registration.
func (g *Graph) markPersisted() {
	g.mu.Lock()
	g.persisted = true
	g.mu.Unlock()
}

// isPersisted reports whether the durable log holds this registration.
func (g *Graph) isPersisted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.persisted
}

// ensure materializes a restored graph's edge slice. It is a no-op for
// graphs registered in this process; every job run calls it before
// touching View. Concurrent calls are serialized; after the first
// success the edges are immutable.
func (g *Graph) ensure() error {
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	g.mu.Lock()
	loaded := g.edges != nil
	g.mu.Unlock()
	if loaded {
		return nil
	}
	if g.load == nil {
		return fmt.Errorf("service: graph %q has no edges and no loader", g.ID)
	}
	edges, err := g.load() // potentially slow: no locks besides loadMu
	if err != nil {
		return fmt.Errorf("service: re-materializing graph %q: %w", g.ID, err)
	}
	if len(edges) != g.EdgeCount {
		// The regenerated/re-read edge list disagrees with the recorded
		// metadata: a swapped upload file or a generator change. Serving
		// it would silently invalidate every cached result for this id.
		return fmt.Errorf("service: graph %q re-materialized with %d edges, recorded %d", g.ID, len(edges), g.EdgeCount)
	}
	g.mu.Lock()
	g.edges = edges
	g.mu.Unlock()
	return nil
}

// Materialized reports whether the edge slice is resident (restored
// graphs stay cold until their first job).
func (g *Graph) Materialized() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.edges != nil
}

// GraphInfo is the wire form of a Graph (Graph itself carries the edge
// slices and a mutex, so it never crosses the API boundary).
type GraphInfo struct {
	ID           string    `json:"id"`
	Type         string    `json:"type"`
	Weighted     bool      `json:"weighted"`
	Vertices     uint64    `json:"vertices"`
	Edges        int       `json:"edges"`
	Registered   time.Time `json:"registered"`
	Materialized bool      `json:"materialized"`
	CachedViews  []string  `json:"cachedViews"`
	// Bytes is what the graph holds resident, by kind.
	Bytes GraphBytes `json:"bytes"`
}

// Info snapshots the graph for serialization.
func (g *Graph) Info() GraphInfo {
	return GraphInfo{
		ID:           g.ID,
		Type:         g.Type,
		Weighted:     g.Weighted,
		Vertices:     g.Vertices,
		Edges:        g.EdgeCount,
		Registered:   g.Registered,
		Materialized: g.Materialized(),
		CachedViews:  g.CachedViews(),
		Bytes:        g.Bytes(),
	}
}

// viewSlot is one converted view: the conversion runs once, outside
// g.mu, and concurrent callers wait on ready.
type viewSlot struct {
	ready chan struct{} // closed once edges is set
	edges []chaos.Edge
}

// applyView converts edges to a view; a variable so a test can hold a
// conversion open.
var applyView = chaos.View.Apply

// View returns the graph's edges in the requested view, converting on
// first use and caching the result so subsequent jobs skip the
// conversion (the point of registering a graph once). For a graph
// restored from the durable log the caller must ensure() first; the
// scheduler's execute path always does.
func (g *Graph) View(v chaos.View) []chaos.Edge {
	g.mu.Lock()
	edges := g.edges
	if v == chaos.ViewDirected {
		g.mu.Unlock()
		return edges
	}
	if g.views == nil {
		g.views = make(map[chaos.View]*viewSlot)
	}
	slot, ok := g.views[v]
	if !ok {
		slot = &viewSlot{ready: make(chan struct{})}
		g.views[v] = slot
	}
	g.mu.Unlock()
	if ok {
		<-slot.ready
		return slot.edges
	}
	converted := applyView(v, edges)
	g.mu.Lock()
	slot.edges = converted
	g.mu.Unlock()
	close(slot.ready)
	return converted
}

// binCache returns the bin cache of view v, whose edges View returned,
// creating it on the view's first native job.
func (g *Graph) binCache(v chaos.View, edges []chaos.Edge) *chaos.BinCache {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.binCaches[v]; ok {
		return c
	}
	if g.bins == nil {
		g.bins = drive.NewBinStore()
		g.binCaches = make(map[chaos.View]*chaos.BinCache)
	}
	c := g.bins.Bind(edges)
	g.binCaches[v] = c
	return c
}

// CachedViews lists the views materialized so far (diagnostics).
func (g *Graph) CachedViews() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.edges == nil {
		return []string{} // restored and still cold: nothing resident
	}
	names := []string{chaos.ViewDirected.String()}
	for v, slot := range g.views {
		if slot.edges != nil {
			names = append(names, v.String())
		}
	}
	sort.Strings(names)
	return names
}

// GraphBytes is what a graph holds resident, by kind.
type GraphBytes struct {
	// Edges is the edge slice: 0 while a restored graph is cold.
	Edges int64 `json:"edges"`
	// Views is the converted views (undirected, augmented); the
	// directed view is the edge slice itself.
	Views int64 `json:"views"`
	// Bins is the native pre-processing output kept for its views.
	Bins int64 `json:"bins"`
}

// add sums o into b.
func (b *GraphBytes) add(o GraphBytes) {
	b.Edges += o.Edges
	b.Views += o.Views
	b.Bins += o.Bins
}

// edgeBytes is one resident chaos.Edge.
const edgeBytes = int64(unsafe.Sizeof(chaos.Edge{}))

// Bytes counts what the graph holds.
func (g *Graph) Bytes() GraphBytes {
	g.mu.Lock()
	b := GraphBytes{Edges: int64(len(g.edges)) * edgeBytes}
	for _, slot := range g.views {
		b.Views += int64(len(slot.edges)) * edgeBytes
	}
	bins := g.bins
	g.mu.Unlock()
	if bins != nil {
		b.Bins = bins.Bytes()
	}
	return b
}

// Catalog is the registry of materialized graphs.
type Catalog struct {
	mu     sync.RWMutex
	graphs map[string]*Graph
	order  []string
	nextID int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{graphs: make(map[string]*Graph)}
}

var graphNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkBounds rejects a generated graph whose size is outside what the
// service will generate. Register and the loader of a graph restored
// from the durable log both call it, so a snapshot or journal cannot
// name a graph that registration would refuse.
func (spec GraphSpec) checkBounds() error {
	switch spec.Type {
	case "rmat":
		if spec.Scale < 1 || spec.Scale > 30 {
			return fmt.Errorf("service: rmat scale %d out of range [1,30]", spec.Scale)
		}
	case "web":
		if spec.Pages < 2 || spec.Pages > 1<<30 {
			return fmt.Errorf("service: web pages %d out of range [2,2^30]", spec.Pages)
		}
	}
	return nil
}

// Register materializes the graph spec describes and files it under
// spec.Name (or a generated id). Registering a name twice is an error:
// the catalog's contract is that a graph id always denotes the same edge
// set, which is what lets results be cached per graph.
func (c *Catalog) Register(spec GraphSpec) (*Graph, error) {
	if err := spec.checkBounds(); err != nil {
		return nil, err
	}
	var edges []chaos.Edge
	var n uint64
	weighted := spec.Weighted
	switch spec.Type {
	case "rmat":
		edges = chaos.GenerateRMAT(spec.Scale, spec.Weighted, spec.Seed)
		n = uint64(1) << uint(spec.Scale)
	case "web":
		edges = chaos.GenerateWebGraph(spec.Pages, spec.Seed)
		n = spec.Pages
		weighted = false
	case "upload":
		if len(spec.Data) == 0 {
			return nil, fmt.Errorf("service: upload needs a non-empty data field")
		}
		declared := spec.Vertices
		if declared == 0 {
			declared = 1 // compact format; infer the count from the edges
		}
		var err error
		edges, err = graph.NewReader(bytes.NewReader(spec.Data), graph.FormatFor(declared, spec.Weighted)).ReadAll()
		if err != nil {
			return nil, fmt.Errorf("service: decoding upload: %w", err)
		}
		// A declared count smaller than the edge list's vertex IDs
		// would index out of range deep inside the engine.
		if n, err = graph.VertexCount(edges, spec.Vertices); err != nil {
			return nil, fmt.Errorf("service: upload: %w", err)
		}
	default:
		return nil, fmt.Errorf("service: unknown graph type %q (want rmat, web or upload)", spec.Type)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("service: graph has no edges")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	id := spec.Name
	if id == "" {
		c.nextID++
		id = fmt.Sprintf("g%d", c.nextID)
	} else if !graphNameRE.MatchString(id) {
		return nil, fmt.Errorf("service: invalid graph name %q", id)
	}
	if _, exists := c.graphs[id]; exists {
		return nil, &conflictError{what: "graph", id: id}
	}
	persistSpec := spec
	persistSpec.Data = nil // upload payloads are persisted as files, not journal records
	g := &Graph{
		ID:         id,
		Type:       spec.Type,
		Weighted:   weighted,
		Vertices:   n,
		EdgeCount:  len(edges),
		Registered: time.Now().UTC(),
		spec:       persistSpec,
		edges:      edges,
	}
	c.graphs[id] = g
	c.order = append(c.order, id)
	return g, nil
}

// restore files a graph rebuilt from the durable log without
// materializing its edges. Duplicate ids are ignored (journal replay is
// idempotent: a registration can appear in both the snapshot and the
// surviving journal segment around a compaction).
func (c *Catalog) restore(g *Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.graphs[g.ID]; exists {
		return
	}
	c.graphs[g.ID] = g
	c.order = append(c.order, g.ID)
}

// remove unregisters a graph; the registration path uses it to roll
// back when persisting a fresh registration fails.
func (c *Catalog) remove(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.graphs[id]; !ok {
		return
	}
	delete(c.graphs, id)
	for i, got := range c.order {
		if got == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// floorNextID raises the anonymous-id counter so ids assigned after a
// restart never collide with recovered ones.
func (c *Catalog) floorNextID(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.nextID {
		c.nextID = n
	}
}

// Get returns the graph registered under id.
func (c *Catalog) Get(id string) (*Graph, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, ok := c.graphs[id]
	return g, ok
}

// Bytes sums what every registered graph holds, by kind.
func (c *Catalog) Bytes() GraphBytes {
	var b GraphBytes
	for _, g := range c.List() {
		b.add(g.Bytes())
	}
	return b
}

// List returns every registered graph in registration order.
func (c *Catalog) List() []*Graph {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Graph, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.graphs[id])
	}
	return out
}
