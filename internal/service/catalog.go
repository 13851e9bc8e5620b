package service

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// Graph is a registered graph: its durable record (the metadata the
// journal and snapshots hold, and all a restart needs to rebuild the
// edges), its edge list held once, as the §8 records it was uploaded or
// generated as, the sources its three views are read through, and, per
// view handed to a native job, that view's pre-processing output (§3),
// all shared read-only by every job that references it.
//
// A graph restored from the durable log starts cold: only its record
// came back from disk, and `ensure` rebuilds the edge records from it on
// first use. The generated graph types are deterministic functions of
// their spec, so regeneration is exact; uploads re-read their persisted
// payload.
type Graph struct {
	// graphRecord is set before the graph is filed and never written
	// after, so it is read without a lock.
	graphRecord

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

// ensure loads a restored graph's records from its record (an upload's
// payload path is relative to dataDir). It is a no-op for graphs
// registered in this process; every job run calls it before reading a
// source. Concurrent calls are serialized; after the first success the
// records are immutable.
func (g *Graph) ensure(dataDir string) error {
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	if g.Materialized() {
		return nil
	}
	recs, err := g.load(dataDir) // potentially slow: no locks besides loadMu
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
	// nextID is the highest n of a g<n> filed (or the snapshot's): it
	// only rises, so a generated id never names a graph filed before.
	nextID int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{graphs: make(map[string]*Graph)}
}

var graphNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkBounds rejects a generated graph whose size is outside what the
// service will generate. Registration and the loader of a graph restored
// from the durable log both call it, so a snapshot or journal cannot
// name a graph that registration would refuse.
func (r *graphRecord) checkBounds() error {
	switch r.Type {
	case "rmat":
		if err := rmat.CheckScale(r.Scale); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	case "web":
		if r.Pages < 2 || r.Pages > 1<<30 {
			return fmt.Errorf("service: web pages %d out of range [2,2^30]", r.Pages)
		}
	}
	return nil
}

// generate encodes the edges a generated graph's record names, once,
// into the §8 records of its vertex count, as the generator yields them:
// registration never holds the graph as a slice of Edge, only its
// records and one batch.
func (r *graphRecord) generate() (recs *graph.RecordSource, n uint64, weighted bool) {
	var g graph.Generator
	var edges uint64 // the buffer's capacity in records
	if r.Type == "rmat" {
		rg := rmat.New(r.Scale, r.Seed)
		rg.Weighted = r.SpecWeighted
		g, edges = rg, rg.NumEdges()
	} else {
		wg := webgraph.New(r.Pages, r.Seed)
		// The expected count and a sixteenth: its spread is about 1% at
		// a few thousand pages, and narrower above.
		g, edges = wg, r.Pages*uint64(wg.MeanOutDegree)*17/16
	}
	f := g.Format()
	data := make([]byte, 0, edges*uint64(f.EdgeSize()))
	g.Each(graph.NewScratch(), func(batch []graph.Edge) { data = f.EncodeEdges(data, batch) })
	recs, err := graph.Records(data, f)
	if err != nil {
		panic(err) // whole records by construction
	}
	return recs, g.NumVertices(), f.Weighted
}

// uploaded returns the source over an upload's payload, which it keeps
// as it is: records in the compact format unless the declared vertex
// count needs wider IDs.
func (r *graphRecord) uploaded(data []byte) (*graph.RecordSource, error) {
	declared := r.DeclaredVertices
	if declared == 0 {
		declared = 1 // compact format; infer the count from the edges
	}
	return graph.Records(data, graph.FormatFor(declared, r.SpecWeighted))
}

// load rebuilds the edge records a restored graph's record names: a
// generated graph from its spec, an upload from its payload file under
// dataDir's uploads/. A spec past registration's bounds, or a payload
// path that leaves uploads/, fails with the reason, opening nothing, so
// its jobs fail and the process does not.
func (r *graphRecord) load(dataDir string) (*graph.RecordSource, error) {
	if err := r.checkBounds(); err != nil {
		return nil, err
	}
	switch r.Type {
	case "rmat", "web":
		recs, _, _ := r.generate()
		return recs, nil
	case "upload":
		if rel, ok := strings.CutPrefix(filepath.Clean(r.Upload), "uploads"+string(filepath.Separator)); !ok || !filepath.IsLocal(rel) {
			return nil, fmt.Errorf("upload payload %q is not a file under uploads/", r.Upload)
		}
		data, err := os.ReadFile(filepath.Join(dataDir, r.Upload))
		if err != nil {
			return nil, err
		}
		return r.uploaded(data)
	}
	return nil, fmt.Errorf("unknown persisted graph type %q", r.Type)
}

// Register materializes the graph spec describes and files it under
// spec.Name (or a generated id). Registering a name twice is an error:
// the catalog's contract is that a graph id always denotes the same edge
// set, which is what lets results be cached per graph. A durable
// service registers through Service.RegisterGraph, which journals the
// graph as it files it.
func (c *Catalog) Register(spec GraphSpec) (*Graph, error) {
	g, err := c.build(spec)
	if err != nil {
		return nil, err
	}
	if err := c.file(g, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// build checks spec and materializes the graph it describes, unfiled.
func (c *Catalog) build(spec GraphSpec) (*Graph, error) {
	g := &Graph{graphRecord: graphRecord{
		ID: spec.Name, Type: spec.Type, Scale: spec.Scale, Pages: spec.Pages, Seed: spec.Seed,
		SpecWeighted: spec.Weighted, DeclaredVertices: spec.Vertices,
	}, bins: drive.NewBinStore()}
	if err := g.checkBounds(); err != nil {
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
		if recs, err = g.uploaded(spec.Data); err != nil {
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
		if _, exists := c.Get(spec.Name); exists {
			return nil, &conflictError{what: "graph", id: spec.Name}
		}
	}
	if recs == nil {
		recs, g.Vertices, g.Weighted = g.generate()
	} else {
		// A declared count smaller than the edge list's vertex IDs
		// would index out of range deep inside the engine.
		var err error
		if g.Vertices, err = graph.VertexCount(recs, spec.Vertices); err != nil {
			return nil, fmt.Errorf("service: upload: %w", err)
		}
		g.Weighted = spec.Weighted
	}
	if recs.Len() == 0 {
		return nil, fmt.Errorf("service: graph has no edges")
	}
	g.EdgeCount = recs.Len()
	g.Registered = time.Now().UTC()
	g.hold(recs)
	return g, nil
}

// file enters g under its id, or the next unused g<n> when it has none,
// and, when journal is set, appends its record first in the same
// critical section: a failed append files nothing. captureSnapshot
// copies records under c.mu too, so no graph is visible, to a job or a
// snapshot, before the journal holds its record, and a compaction can
// never drop a segment whose graph its snapshot lacks. Registration and
// recovery (journal nil: the record came from the log) both file here.
func (c *Catalog) file(g *Graph, journal func(*graphRecord) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.ID == "" {
		g.ID = fmt.Sprintf("g%d", c.nextID+1)
	}
	// A concurrent registration may have taken the name since build.
	if _, exists := c.graphs[g.ID]; exists {
		return &conflictError{what: "graph", id: g.ID}
	}
	if journal != nil {
		if err := journal(&g.graphRecord); err != nil {
			return err
		}
	}
	c.graphs[g.ID] = g
	c.order = append(c.order, g.ID)
	// Past every g<n> filed, named ones too, so a generated id is never
	// one a client took.
	var n int
	if _, err := fmt.Sscanf(g.ID, "g%d", &n); err == nil && n > c.nextID {
		c.nextID = n
	}
	return nil
}

// remove unregisters a graph; durable registration uses it to unfile a
// graph whose journal record could not be synced.
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
