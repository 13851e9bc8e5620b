package drive

import (
	"sync"
	"sync/atomic"
	"testing"

	"chaos/internal/graph"
)

func testBins(held int64) *Bins {
	return NewBins([][][]byte{{make([]byte, held)}}, nil, nil)
}

// Concurrent misses on one key build once, and every caller gets the
// set that build returned; a later lookup borrows it.
func TestBinStoreBuildsOnce(t *testing.T) {
	edges := graph.Edges(make([]graph.Edge, 8))
	c := NewBinStore().Bind(edges)
	key := BinKey{Machines: 2, Partitions: 2}
	release := make(chan struct{})
	var builds atomic.Int32
	build := func() *Bins {
		builds.Add(1)
		<-release
		return testBins(64)
	}
	const callers = 8
	got := make([]*Bins, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.Lookup(edges, key, build)
		}(i)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i, b := range got {
		if b != got[0] {
			t.Fatalf("caller %d got another set", i)
		}
	}
	if b, built := c.Lookup(edges, key, build); built || b != got[0] {
		t.Fatalf("warm lookup built=%v, want the cached set", built)
	}
	if n := c.store.Bytes(); n != 64 {
		t.Fatalf("store holds %d bytes, want 64", n)
	}
}

// A cache answers only for the source it is bound to: another source,
// even one over the same slice, a copy or a prefix, builds and leaves
// the store untouched.
func TestBinCacheBindsOneSlice(t *testing.T) {
	edges := make([]graph.Edge, 8)
	src := graph.Edges(edges)
	c := NewBinStore().Bind(src)
	key := BinKey{Machines: 1}
	for _, other := range []graph.Source{graph.Edges(edges), graph.Edges(append([]graph.Edge(nil), edges...)), graph.Edges(edges[:4]), graph.UndirectedView(src)} {
		if _, built := c.Lookup(other, key, func() *Bins { return testBins(8) }); !built {
			t.Fatalf("a lookup over another source (%T) was answered from the cache", other)
		}
	}
	if n := c.store.Bytes(); n != 0 {
		t.Fatalf("bypassed lookups left %d bytes in the store", n)
	}
	if _, built := c.Lookup(src, key, func() *Bins { return testBins(8) }); !built {
		t.Fatal("the bound source's first lookup did not build")
	}
	if _, built := c.store.Bind(src).Lookup(src, key, func() *Bins { return testBins(8) }); built {
		t.Fatal("a second cache bound to the same source rebuilt its set")
	}
	var nilCache *BinCache
	if _, built := nilCache.Lookup(src, key, func() *Bins { return testBins(8) }); !built {
		t.Fatal("a nil cache answered")
	}
}

// Past MaxBinSets the least recently used set goes, across every cache
// bound to the store, and the byte count drops by what it held.
func TestBinStoreEvictsLeastRecentlyUsed(t *testing.T) {
	s := NewBinStore()
	a, b := graph.Edges(make([]graph.Edge, 4)), graph.Edges(make([]graph.Edge, 4))
	ca, cb := s.Bind(a), s.Bind(b)
	held := func(i int) int64 { return int64(16 << i) }
	sets := make([]*Bins, MaxBinSets+1)
	lookup := func(i int) bool {
		c, edges := ca, a
		if i%2 == 1 {
			c, edges = cb, b
		}
		got, built := c.Lookup(edges, BinKey{Machines: i}, func() *Bins { return testBins(held(i)) })
		if sets[i] == nil {
			sets[i] = got
		}
		return built
	}
	var total int64
	for i := 0; i < MaxBinSets; i++ {
		lookup(i)
		total += held(i)
	}
	lookup(0) // set 1 is now the least recently used
	if s.Bytes() != total {
		t.Fatalf("store holds %d bytes, want %d", s.Bytes(), total)
	}
	lookup(MaxBinSets)
	if want := total + held(MaxBinSets) - held(1); s.Bytes() != want {
		t.Fatalf("after the fifth set the store holds %d bytes, want %d", s.Bytes(), want)
	}
	if lookup(0) {
		t.Fatal("set 0, recently used, was evicted")
	}
	if !lookup(1) {
		t.Fatal("set 1, least recently used, was not evicted")
	}
	if len(sets[1].Chunks[0][0]) != int(held(1)) {
		t.Fatal("eviction touched a set a holder still reads")
	}
}
