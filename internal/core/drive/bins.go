package drive

import (
	"slices"
	"sync"
	"unsafe"

	"chaos/internal/graph"
)

// Bins is one pre-processing pass's output (§3) over an edge list: every
// partition's edge chunks, concatenated in machine order, and the folded
// out-degrees when the program counts them. A bin set is immutable once
// built, so any number of runs may read it at once: a run copies the
// outer slices it mutates (the native driver's edge generations), its
// chunk lists are capacity-clipped so no append can write into them, and
// InitVertices only reads the degrees. Edge chunks are never returned to
// a pool (DESIGN.md, "Who owns a chunk's bytes").
type Bins struct {
	// Chunks[p] is partition p's edge chunks in stream order.
	Chunks [][][]byte
	// Deg[p] is partition p's out-degrees; Deg is nil unless counted.
	Deg [][]uint32
	// Bytes is the binned total, the §3 output a run counts as written.
	Bytes int64
	// Held is what the set keeps resident: the chunks' backing and the
	// degree counts.
	Held int64
	// Spans are the build's per-machine preprocess spans, in machine
	// order. A run that borrows the set reports the same tallies over
	// its own lookup's time range.
	Spans []Span
}

// NewBins assembles a bin set from its chunk lists (one per partition),
// its degrees (nil when not counted) and the build's spans, clipping the
// lists and counting their bytes.
func NewBins(chunks [][][]byte, deg [][]uint32, spans []Span) *Bins {
	b := &Bins{Chunks: chunks, Deg: deg, Spans: spans}
	for p, list := range chunks {
		chunks[p] = slices.Clip(list)
		for _, c := range list {
			b.Bytes += int64(len(c))
			b.Held += int64(cap(c))
		}
	}
	for _, d := range deg {
		b.Held += int64(len(d)) * int64(unsafe.Sizeof(uint32(0)))
	}
	return b
}

// BinKey is everything a bin set's bytes depend on besides the edges:
// the input split (machines), the partition ranges (vertex and partition
// counts), the chunk cut, the record format and whether degrees were
// counted. A run's seed, compute workers and transport budget are not
// in it: binning reads none of them.
type BinKey struct {
	Machines    int
	Partitions  int
	NumVertices uint64
	ChunkBytes  int
	Format      graph.Format
	Degrees     bool
}

// MaxBinSets bounds the bin sets one BinStore holds; past it the least
// recently used set goes. A run still reading an evicted set finishes on
// it: eviction only drops the store's reference.
const MaxBinSets = 4

// BinStore holds bin sets for the caches bound to it (one per edge
// source) under one bound and one byte count: the job service keeps one
// store per registered graph and binds it to each view's source.
type BinStore struct {
	mu   sync.Mutex
	sets map[binSlot]*binEntry
	tick uint64 // last-use clock
	held int64  // Held of every built set
}

type binSlot struct {
	src graph.Source
	key BinKey
}

type binEntry struct {
	ready chan struct{} // closed once bins is set
	bins  *Bins
	used  uint64
}

// NewBinStore returns an empty store.
func NewBinStore() *BinStore {
	return &BinStore{sets: make(map[binSlot]*binEntry)}
}

// Bind returns a cache over src that keeps its bin sets in s. Caches
// bound to one source share its sets.
func (s *BinStore) Bind(src graph.Source) *BinCache {
	return &BinCache{store: s, src: src}
}

// Bytes is what the store's built sets hold.
func (s *BinStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// Each calls fn on every built set, in no particular order (diagnostics
// and tests). fn runs under the store's lock and must not call into it.
func (s *BinStore) Each(fn func(BinKey, *Bins)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for slot, e := range s.sets {
		if e.bins != nil {
			fn(slot.key, e.bins)
		}
	}
}

// BinCache is a BinStore bound to one edge source: a run over any other
// source bypasses the cache, so a cache can never answer for edges it
// was not built from. A nil cache bypasses too.
type BinCache struct {
	store *BinStore
	src   graph.Source
}

// Store is the store c keeps its sets in.
func (c *BinCache) Store() *BinStore { return c.store }

// Lookup returns key's bin set over src, running build on a miss.
// Concurrent misses on one key build once: the others wait for the set
// without holding the store's lock. built reports whether this call ran
// build.
func (c *BinCache) Lookup(src graph.Source, key BinKey, build func() *Bins) (bins *Bins, built bool) {
	if c == nil || src != c.src {
		return build(), true
	}
	s := c.store
	slot := binSlot{src, key}
	s.mu.Lock()
	s.tick++
	if e, ok := s.sets[slot]; ok {
		e.used = s.tick
		s.mu.Unlock()
		<-e.ready
		return e.bins, false
	}
	e := &binEntry{ready: make(chan struct{}), used: s.tick}
	s.sets[slot] = e
	s.mu.Unlock()

	bins = build()
	s.mu.Lock()
	s.tick++
	e.bins, e.used = bins, s.tick // a set just built is the most recently used
	s.held += bins.Held
	s.evict()
	s.mu.Unlock()
	close(e.ready)
	return bins, true
}

// evict drops least recently used built sets until at most MaxBinSets
// remain. Sets still building are neither counted nor dropped. s.mu is
// held.
func (s *BinStore) evict() {
	for {
		var lru binSlot
		var oldest *binEntry
		n := 0
		for slot, e := range s.sets {
			if e.bins == nil {
				continue
			}
			n++
			if oldest == nil || e.used < oldest.used {
				lru, oldest = slot, e
			}
		}
		if n <= MaxBinSets {
			return
		}
		delete(s.sets, lru)
		s.held -= oldest.bins.Held
	}
}
