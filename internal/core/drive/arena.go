package drive

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// recArena is one run's update-record memory: every []UpdRec[U] the run
// moves — a scatter chunk's per-destination output, a spill replay, a
// combiner flush, a DES update chunk from the Wire that cuts it to the
// storage engine that deletes it — is a slab taken from it and returned
// to it, so a run allocates its update memory once and then recycles it
// (DESIGN.md, "Who owns a chunk's bytes"). It is a plain mutex-guarded
// free list per size class: unlike a sync.Pool it survives garbage
// collections, hands back a slab of the capacity asked for, and gets an
// outgrown slab back instead of abandoning it. A run lent a SlabStore
// (Kernel.BorrowSlabs) takes from it on a miss, before it allocates, and
// gives it what it would otherwise drop.
//
// Slab capacities come in four classes per power of two (4, 5, 6, 7, 8,
// 10, 12, 14, 16, 20, ...), so a slab holds at most a quarter more than
// was asked for. A slab the arena did not allocate (tests hand transports
// slices of their own) files under the largest class it can serve.
type recArena[U any] struct {
	mu   sync.Mutex
	free [slabClasses][][]UpdRec[U]
	// out counts the slabs of each class handed out and not yet returned;
	// peak is its maximum since the last trim.
	out, peak [slabClasses]int32
	// inUse is the capacity handed out and not yet returned, in records,
	// and highWater its maximum since the last trim: the figure a memory
	// budget is held against (Kernel.ArenaHighWater).
	inUse, highWater int64
	// shelf is the lent store's shelf for this record type, nil while
	// no store is lent.
	shelf *slabShelf[U]
}

const (
	minSlab     = 4            // records in the smallest slab
	slabClasses = 4*(31-2) + 1 // 4 records up to 2^31
)

// slabSize is the capacity of class c's slabs.
func slabSize(c int) int { return (4 + c%4) << (c / 4) }

// slabClassOf is the largest class a slab of capacity n can serve
// (n >= minSlab): the class whose size is n rounded down.
func slabClassOf(n int) int {
	k := bits.Len(uint(n)) - 3
	return min(4*k+n>>k-4, slabClasses-1)
}

// slabClassFor is the smallest class whose slabs hold n records.
func slabClassFor(n int) int {
	if n <= minSlab {
		return 0
	}
	c := slabClassOf(n)
	if slabSize(c) < n {
		c++
	}
	return c
}

// grab returns an empty slab holding at least n records.
func (a *recArena[U]) grab(n int) []UpdRec[U] {
	c := slabClassFor(n)
	var slab []UpdRec[U]
	a.mu.Lock()
	if f := a.free[c]; len(f) > 0 {
		slab = f[len(f)-1]
		f[len(f)-1] = nil
		a.free[c] = f[:len(f)-1]
	} else if a.shelf != nil {
		slab = a.shelf.take(c)
	}
	held := slabSize(c)
	if slab != nil {
		held = cap(slab)
	}
	a.out[c]++
	a.peak[c] = max(a.peak[c], a.out[c])
	a.inUse += int64(held)
	a.highWater = max(a.highWater, a.inUse)
	a.mu.Unlock()
	if slab == nil {
		slab = make([]UpdRec[U], 0, held)
	}
	return slab
}

// release takes a slab back. The counters clamp at zero because a slab
// the arena never handed out may come back through the same door.
func (a *recArena[U]) release(slab []UpdRec[U]) {
	if cap(slab) < minSlab {
		return
	}
	c := slabClassOf(cap(slab))
	a.mu.Lock()
	a.free[c] = append(a.free[c], slab[:0])
	a.out[c] = max(a.out[c]-1, 0)
	a.inUse = max(a.inUse-int64(cap(slab)), 0)
	a.mu.Unlock()
}

// trim is the decision-point rule: each class keeps up to twice as many
// slabs as the finished iteration had in use at once and drops the free
// ones beyond that. A steady iteration finds every slab it needs, a
// one-off giant frontier is not pinned for the rest of the run, and a
// class never holds more than twice what it last needed. Twice, not once:
// how many slabs are out at the same moment depends on how the machines'
// goroutines interleave, and a rule that trims to last iteration's exact
// count drops slabs the next one allocates again (a tenth of an
// iteration's update memory per five iterations of a budgeted run, when
// measured). A slab trim drops goes to the lent store, if any.
func (a *recArena[U]) trim() {
	a.mu.Lock()
	a.shelf.noteHigh(a.highWater)
	for c := range a.free {
		f := a.free[c]
		for len(f) > 0 && int(a.out[c])+len(f) > 2*int(a.peak[c]) {
			a.shelf.give(f[len(f)-1])
			f[len(f)-1] = nil
			f = f[:len(f)-1]
		}
		a.free[c] = f
		a.peak[c] = a.out[c]
	}
	a.highWater = a.inUse
	a.mu.Unlock()
}

// lend makes s the arena's store until the returned func gives it every
// free slab and ends the loan. A slab still out at that moment — held by
// a transport bucket or the DES store — never reaches s, and one
// released after it stays with the arena.
func (a *recArena[U]) lend(s *SlabStore) (giveBack func()) {
	if s == nil {
		return func() {}
	}
	sh := borrow[U](s)
	a.mu.Lock()
	a.shelf = sh
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		sh.noteHigh(a.highWater)
		for c := range a.free {
			for i, slab := range a.free[c] {
				sh.give(slab)
				a.free[c][i] = nil
			}
			a.free[c] = a.free[c][:0]
		}
		a.shelf = nil
		sh.store.mu.Lock()
		sh.store.lending--
		sh.store.mu.Unlock()
	}
}

// SlabStore keeps the update-record slabs of finished runs for later
// runs to take before they allocate. The job service lends one to every
// run it executes (Env.Slabs), so a served job starts with the update
// memory earlier jobs left instead of allocating its own. It holds free
// slabs per record type and slab class under one mutex and one byte
// count.
//
// There is no knob: for each record type the store holds at most the
// most runs it has been lent to at once times the largest arena high
// water, in bytes, that one run of that type reached; a slab past that
// is dropped for the collector. A run lent no store keeps nothing past
// its end (TestFinishedRunIsCollectable), which is why this is an object
// a caller lends and not a process-wide pool. Safe for concurrent runs.
type SlabStore struct {
	mu sync.Mutex
	// shelves maps reflect.TypeFor[U]() to its *slabShelf[U]: Go has
	// no generic package-level variables.
	shelves map[reflect.Type]any
	// lending counts the runs lent the store now, and mostLending its
	// maximum so far.
	lending, mostLending int
	held                 int64 // bytes on every shelf
}

// slabShelf is a SlabStore's slabs of one record type. Its fields are
// guarded by store.mu.
type slabShelf[U any] struct {
	store *SlabStore
	free  [slabClasses][][]UpdRec[U]
	held  int64 // bytes on the shelf
	high  int64 // the largest arena high water of one run, bytes
}

// NewSlabStore returns an empty store.
func NewSlabStore() *SlabStore {
	return &SlabStore{shelves: make(map[reflect.Type]any)}
}

// Bytes is what the store holds.
func (s *SlabStore) Bytes() int64 {
	s.mu.Lock()
	n := s.held
	s.mu.Unlock()
	return n
}

// borrow counts one more run lent s and returns its shelf for U.
func borrow[U any](s *SlabStore) *slabShelf[U] {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lending++
	s.mostLending = max(s.mostLending, s.lending)
	t := reflect.TypeFor[U]()
	sh, ok := s.shelves[t].(*slabShelf[U])
	if !ok {
		sh = &slabShelf[U]{store: s}
		s.shelves[t] = sh
	}
	return sh
}

// slabBytes is what n records of U hold.
func slabBytes[U any](n int) int64 { return int64(n) * int64(unsafe.Sizeof(UpdRec[U]{})) }

// take returns a slab of class c, or nil when the shelf has none.
func (sh *slabShelf[U]) take(c int) []UpdRec[U] {
	s := sh.store
	s.mu.Lock()
	defer s.mu.Unlock()
	f := sh.free[c]
	if len(f) == 0 {
		return nil
	}
	slab := f[len(f)-1]
	f[len(f)-1] = nil
	sh.free[c] = f[:len(f)-1]
	sh.held -= slabBytes[U](cap(slab))
	s.held -= slabBytes[U](cap(slab))
	return slab
}

// give shelves a free slab, or drops it when the shelf is at its bound.
// A nil shelf drops it.
func (sh *slabShelf[U]) give(slab []UpdRec[U]) {
	if sh == nil {
		return
	}
	s := sh.store
	size := slabBytes[U](cap(slab))
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh.held+size > int64(s.mostLending)*sh.high {
		return
	}
	c := slabClassOf(cap(slab))
	sh.free[c] = append(sh.free[c], slab[:0])
	sh.held += size
	s.held += size
}

// noteHigh raises the shelf's high water to a run's, given in records.
// A nil shelf ignores it.
func (sh *slabShelf[U]) noteHigh(records int64) {
	if sh == nil {
		return
	}
	sh.store.mu.Lock()
	sh.high = max(sh.high, slabBytes[U](int(records)))
	sh.store.mu.Unlock()
}

// slabHints is what the typed scatter has learned about its own output:
// for each (source partition, destination partition) pair, the most
// records one edge chunk produced in the last finished iteration and in
// the current one. ScatterChunkTyped sizes each slab from it. The size is
// learned from the data and never derived from ChunkBytes: at the default
// 4 MiB chunk almost no pair fills a chunk, and reserving a chunk's worth
// per pair costs gigabytes on a graph of megabytes. Rows appear with a
// source partition's first scatter.
type slabHints struct {
	rows []atomic.Pointer[hintRow]
}

type hintRow struct {
	last, cur []atomic.Int32
}

func (h *slabHints) row(src int) *hintRow {
	if r := h.rows[src].Load(); r != nil {
		return r
	}
	np := len(h.rows)
	h.rows[src].CompareAndSwap(nil, &hintRow{last: make([]atomic.Int32, np), cur: make([]atomic.Int32, np)})
	return h.rows[src].Load()
}

// want is the slab size for the pair's next chunk.
func (r *hintRow) want(dst int) int {
	return int(max(r.last[dst].Load(), r.cur[dst].Load()))
}

// saw records that one chunk produced n records for dst.
func (r *hintRow) saw(dst, n int) {
	for {
		old := r.cur[dst].Load()
		if int32(n) <= old || r.cur[dst].CompareAndSwap(old, int32(n)) {
			return
		}
	}
}

// age closes an iteration: what it produced is what the next one expects.
func (h *slabHints) age() {
	for i := range h.rows {
		r := h.rows[i].Load()
		if r == nil {
			continue
		}
		for dst := range r.cur {
			r.last[dst].Store(r.cur[dst].Swap(0))
		}
	}
}
