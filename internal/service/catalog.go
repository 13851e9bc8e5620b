package service

import (
	"fmt"
	"regexp"
	"sync"
	"time"

	"chaos"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
	"chaos/internal/rmat"
	"chaos/internal/webgraph"
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

// Graph is a registered graph: its edge list held once, as the §8
// records it was uploaded or generated as, the sources its three views
// are read through, and, per view handed to a native job, that view's
// pre-processing output (§3), all shared read-only by every job that
// references it.
//
// A graph restored from the durable log starts cold: only its metadata
// (and, for uploads, the persisted edge-list file) came back from disk,
// and `load` rebuilds the records on first use. The generated graph
// types are deterministic functions of their spec, so regeneration is
// exact; uploads re-read their persisted payload.
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
	// load rebuilds the records of a restored graph (nil for graphs
	// registered in this process).
	load func() (*graph.RecordSource, error)

	// loadMu serializes loading only; g.mu guards the sources, which
	// are set once, and is never held across generation, indexing,
	// binning or file IO, so Info/List stay responsive while a big
	// graph is worked on.
	loadMu sync.Mutex
	mu     sync.Mutex
	// recs is the directed view itself, nil while a restored graph is
	// cold; undirected and augmented are the other views over it.
	recs       *graph.RecordSource
	undirected *graph.UndirectedSource
	augmented  chaos.EdgeSource
	// bins holds the bin sets of every native job's view, at most
	// drive.MaxBinSets for the whole graph, least recently used out
	// first, each bound to the view source it was built from.
	bins *drive.BinStore
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

// hold builds the views over recs and keeps them. The undirected view
// reads recs once to index its self-loops, outside g.mu.
func (g *Graph) hold(recs *graph.RecordSource) {
	und := graph.UndirectedView(recs)
	aug := chaos.ViewAugmented.Source(recs)
	g.mu.Lock()
	g.recs, g.undirected, g.augmented = recs, und, aug
	g.mu.Unlock()
}

// ensure loads a restored graph's records. It is a no-op for graphs
// registered in this process; every job run calls it before reading a
// source. Concurrent calls are serialized; after the first success the
// records are immutable.
func (g *Graph) ensure() error {
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	if g.Materialized() {
		return nil
	}
	if g.load == nil {
		return fmt.Errorf("service: graph %q has no edges and no loader", g.ID)
	}
	recs, err := g.load() // potentially slow: no locks besides loadMu
	if err != nil {
		return fmt.Errorf("service: re-materializing graph %q: %w", g.ID, err)
	}
	if recs.Len() != g.EdgeCount {
		// The regenerated/re-read edge list disagrees with the recorded
		// metadata: a swapped upload file or a generator change. Serving
		// it would silently invalidate every cached result for this id.
		return fmt.Errorf("service: graph %q re-materialized with %d edges, recorded %d", g.ID, recs.Len(), g.EdgeCount)
	}
	g.hold(recs)
	return nil
}

// Materialized reports whether the records are resident (restored
// graphs stay cold until their first job).
func (g *Graph) Materialized() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recs != nil
}

// GraphInfo is the wire form of a Graph (Graph itself carries the
// records and a mutex, so it never crosses the API boundary).
type GraphInfo struct {
	ID           string    `json:"id"`
	Type         string    `json:"type"`
	Weighted     bool      `json:"weighted"`
	Vertices     uint64    `json:"vertices"`
	Edges        int       `json:"edges"`
	Registered   time.Time `json:"registered"`
	Materialized bool      `json:"materialized"`
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
		Bytes:        g.Bytes(),
	}
}

// source returns the graph's edges in view v, read through its records;
// nil while a restored graph is cold (the scheduler's execute path
// ensures first).
func (g *Graph) source(v chaos.View) chaos.EdgeSource {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.recs == nil:
		return nil
	case v == chaos.ViewUndirected:
		return g.undirected
	case v == chaos.ViewAugmented:
		return g.augmented
	}
	return g.recs
}

// View returns a fresh copy of the graph's edges in view v, nil while a
// restored graph is cold. Jobs read the view's source instead; a copy
// is for callers that need a slice.
func (g *Graph) View(v chaos.View) []chaos.Edge {
	src := g.source(v)
	if src == nil {
		return nil
	}
	return graph.Collect(src)
}

// GraphBytes is what a graph holds resident, by kind.
type GraphBytes struct {
	// Edges is the edge records: 0 while a restored graph is cold.
	Edges int64 `json:"edges"`
	// Views is the undirected view's self-loop index; the views
	// themselves are read through the records.
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

// Bytes counts what the graph holds.
func (g *Graph) Bytes() GraphBytes {
	var b GraphBytes
	g.mu.Lock()
	if g.recs != nil {
		b.Edges = int64(len(g.recs.Bytes()))
		b.Views = g.undirected.IndexBytes()
	}
	g.mu.Unlock()
	b.Bins = g.bins.Bytes()
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

// generate encodes the edges a generated graph's spec names, once,
// into the §8 records of its vertex count, as the generator yields them:
// registration never holds the graph as a slice of Edge, only its
// records and one batch.
func (spec GraphSpec) generate() (recs *graph.RecordSource, n uint64, weighted bool) {
	var f graph.Format
	var data []byte
	if spec.Type == "rmat" {
		g := rmat.New(spec.Scale, spec.Seed)
		g.Weighted = spec.Weighted
		n, weighted, f = g.NumVertices(), g.Weighted, g.Format()
		data = make([]byte, 0, g.NumEdges()*uint64(f.EdgeSize()))
		g.Each(graph.NewScratch(), func(batch []graph.Edge) { data = f.EncodeEdges(data, batch) })
	} else {
		g := webgraph.New(spec.Pages, spec.Seed)
		n, f = g.NumVertices(), g.Format()
		sz := f.EdgeSize()
		// The expected count and a sixteenth: its spread is about 1% at
		// a few thousand pages, and narrower above.
		data = make([]byte, 0, spec.Pages*uint64(g.MeanOutDegree*sz)*17/16)
		g.Each(func(e graph.Edge) {
			data = append(data, make([]byte, sz)...)
			f.Encode(data[len(data)-sz:], e)
		})
	}
	recs, err := graph.Records(data, f)
	if err != nil {
		panic(err) // whole records by construction
	}
	return recs, n, weighted
}

// uploaded returns the source over an upload's payload, which it keeps
// as it is: records in the compact format unless the declared vertex
// count needs wider IDs.
func (spec GraphSpec) uploaded(data []byte) (*graph.RecordSource, error) {
	declared := spec.Vertices
	if declared == 0 {
		declared = 1 // compact format; infer the count from the edges
	}
	return graph.Records(data, graph.FormatFor(declared, spec.Weighted))
}

// Register materializes the graph spec describes and files it under
// spec.Name (or a generated id). Registering a name twice is an error:
// the catalog's contract is that a graph id always denotes the same edge
// set, which is what lets results be cached per graph.
func (c *Catalog) Register(spec GraphSpec) (*Graph, error) {
	if err := spec.checkBounds(); err != nil {
		return nil, err
	}
	var recs *graph.RecordSource
	switch spec.Type {
	case "rmat", "web":
	case "upload":
		if len(spec.Data) == 0 {
			return nil, fmt.Errorf("service: upload needs a non-empty data field")
		}
		var err error
		if recs, err = spec.uploaded(spec.Data); err != nil {
			return nil, fmt.Errorf("service: decoding upload: %w", err)
		}
	default:
		return nil, fmt.Errorf("service: unknown graph type %q (want rmat, web or upload)", spec.Type)
	}
	// A name that cannot be filed fails after the spec's own checks but
	// before the graph is generated or scanned.
	if spec.Name != "" {
		if !graphNameRE.MatchString(spec.Name) {
			return nil, fmt.Errorf("service: invalid graph name %q", spec.Name)
		}
		c.mu.RLock()
		_, exists := c.graphs[spec.Name]
		c.mu.RUnlock()
		if exists {
			return nil, &conflictError{what: "graph", id: spec.Name}
		}
	}
	var n uint64
	weighted := spec.Weighted
	if recs == nil {
		recs, n, weighted = spec.generate()
	} else {
		// A declared count smaller than the edge list's vertex IDs
		// would index out of range deep inside the engine.
		var err error
		if n, err = graph.VertexCount(recs, spec.Vertices); err != nil {
			return nil, fmt.Errorf("service: upload: %w", err)
		}
	}
	if recs.Len() == 0 {
		return nil, fmt.Errorf("service: graph has no edges")
	}
	persistSpec := spec
	persistSpec.Data = nil // upload payloads are persisted as files, not journal records
	g := &Graph{
		Type:       spec.Type,
		Weighted:   weighted,
		Vertices:   n,
		EdgeCount:  recs.Len(),
		Registered: time.Now().UTC(),
		spec:       persistSpec,
		bins:       drive.NewBinStore(),
	}
	g.hold(recs)

	c.mu.Lock()
	defer c.mu.Unlock()
	id := spec.Name
	if id == "" {
		c.nextID++
		id = fmt.Sprintf("g%d", c.nextID)
	}
	// A concurrent registration may have taken the name since the check.
	if _, exists := c.graphs[id]; exists {
		return nil, &conflictError{what: "graph", id: id}
	}
	g.ID = id
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
