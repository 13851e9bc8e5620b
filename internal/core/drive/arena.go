package drive

import (
	"math/bits"
	"reflect"
	"slices"
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
	// shelf is the lent store's shelf for this record size, nil while
	// no store is lent.
	shelf *slabShelf
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
	} else if slab = takeSlab[U](a.shelf, c); slab != nil {
		c = slabClassOf(cap(slab)) // the class release files it under
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

// trimKeep is how many times the finished iteration's peak a class keeps
// at a decision point. A lent store's bound counts it too: an arena may
// hold up to trimKeep times its high water when its loan ends.
const trimKeep = 2

// trim is the decision-point rule: each class keeps up to trimKeep times
// as many slabs as the finished iteration had in use at once and drops
// the free ones beyond that. A steady iteration finds every slab it
// needs, a one-off giant frontier is not pinned for the rest of the run,
// and a class never holds more than twice what it last needed. Twice, not
// once: how many slabs are out at the same moment depends on how the
// machines' goroutines interleave, and a rule that trims to last
// iteration's exact count drops slabs the next one allocates again (a
// tenth of an iteration's update memory per five iterations of a budgeted
// run, when measured). A slab trim drops goes to the lent store, if any.
func (a *recArena[U]) trim() {
	a.mu.Lock()
	a.shelf.noteHigh(a.highWater)
	for c := range a.free {
		f := a.free[c]
		for len(f) > 0 && int(a.out[c])+len(f) > trimKeep*int(a.peak[c]) {
			giveSlab(a.shelf, f[len(f)-1])
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
// released after it stays with the arena. A record type that can hold a
// pointer is lent nothing: its slabs would be read as another type's.
func (a *recArena[U]) lend(s *SlabStore) (giveBack func()) {
	if s == nil || !pointerFree(reflect.TypeFor[U]()) {
		return func() {}
	}
	sh := s.borrow(unsafe.Sizeof(UpdRec[U]{}))
	a.mu.Lock()
	a.shelf = sh
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		sh.noteHigh(a.highWater)
		for c := range a.free {
			for i, slab := range a.free[c] {
				giveSlab(sh, slab)
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

// takeSlab returns the smallest slab sh holds that serves class c and
// meets U's alignment, as U's records, or nil. A nil shelf has none.
func takeSlab[U any](sh *slabShelf, c int) []UpdRec[U] {
	if sh == nil {
		return nil
	}
	p, n := sh.take(c, unsafe.Alignof(UpdRec[U]{}))
	if p == nil {
		return nil
	}
	return unsafe.Slice((*UpdRec[U])(p), n)[:0]
}

// giveSlab shelves a free slab on sh. A nil shelf drops it.
func giveSlab[U any](sh *slabShelf, slab []UpdRec[U]) {
	if sh != nil {
		sh.give(unsafe.Pointer(unsafe.SliceData(slab)), cap(slab))
	}
}

// SlabStore keeps the update-record slabs of finished runs for later
// runs to take before they allocate. The job service lends one to every
// run it executes (Env.Slabs), so a served job starts with the update
// memory earlier jobs left instead of allocating its own. It holds free
// slabs on one shelf per record size, not per record type, so runs of
// different programs share them — PageRank's float32 records and WCC's
// uint32 ones are both 8 bytes — under one mutex and one byte count.
// Only a record type that can hold no pointer is lent the store. On a
// miss in its own free list an arena takes the smallest slab the shelf
// holds from the class it asked for up to three classes larger, which
// holds less than twice what was asked.
//
// There is no knob: for each record size the store holds at most the
// most runs it has been lent to at once times trimKeep times the largest
// arena high water, in bytes, that one run of that size reached — an
// arena keeps up to trimKeep times a class's peak on its own free list,
// and all of it comes to the store when the loan ends; a slab past that
// is dropped for the collector. A run lent no store keeps nothing past
// its end (TestFinishedRunIsCollectable), which is why this is an object
// a caller lends and not a process-wide pool. Safe for concurrent runs.
type SlabStore struct {
	mu sync.Mutex
	// shelves maps a record size, unsafe.Sizeof(UpdRec[U]{}), to its
	// shelf.
	shelves map[uintptr]*slabShelf
	// lending counts the runs lent the store now, and mostLending its
	// maximum so far.
	lending, mostLending int
	held                 int64 // bytes on every shelf
}

// slabShelf is a SlabStore's slabs of one record size. Its fields are
// guarded by store.mu.
type slabShelf struct {
	store *SlabStore
	size  int64 // bytes per record
	free  [slabClasses][]rawSlab
	held  int64 // bytes on the shelf
	high  int64 // the largest arena high water of one run, bytes
}

// rawSlab is a shelved slab of records of the shelf's size, whatever
// their type: its first byte and its capacity in records.
type rawSlab struct {
	p unsafe.Pointer
	n int
}

// fitClasses is how many classes, from the one asked for up, a store
// take may serve: a slab three classes up holds less than twice as much.
const fitClasses = 4

// NewSlabStore returns an empty store.
func NewSlabStore() *SlabStore {
	return &SlabStore{shelves: make(map[uintptr]*slabShelf)}
}

// Bytes is what the store holds.
func (s *SlabStore) Bytes() int64 {
	s.mu.Lock()
	n := s.held
	s.mu.Unlock()
	return n
}

// borrow counts one more run lent s and returns its shelf for records of
// size bytes.
func (s *SlabStore) borrow(size uintptr) *slabShelf {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lending++
	s.mostLending = max(s.mostLending, s.lending)
	sh := s.shelves[size]
	if sh == nil {
		sh = &slabShelf{store: s, size: int64(size)}
		s.shelves[size] = sh
	}
	return sh
}

// take removes and returns the smallest slab in classes c … c+3 whose
// first byte is aligned to align, or nil when the shelf has none.
func (sh *slabShelf) take(c int, align uintptr) (unsafe.Pointer, int) {
	s := sh.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := c; k < min(c+fitClasses, slabClasses); k++ {
		f := sh.free[k]
		for i := len(f) - 1; i >= 0; i-- {
			slab := f[i]
			if uintptr(slab.p)%align != 0 {
				continue
			}
			sh.free[k] = slices.Delete(f, i, i+1)
			sh.held -= sh.size * int64(slab.n)
			s.held -= sh.size * int64(slab.n)
			return slab.p, slab.n
		}
	}
	return nil, 0
}

// give shelves a free slab of n records at p, or drops it when the shelf
// is at its bound.
func (sh *slabShelf) give(p unsafe.Pointer, n int) {
	s := sh.store
	size := sh.size * int64(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh.held+size > int64(s.mostLending)*trimKeep*sh.high {
		return
	}
	c := slabClassOf(n)
	sh.free[c] = append(sh.free[c], rawSlab{p, n})
	sh.held += size
	s.held += size
}

// noteHigh raises the shelf's high water to a run's, given in records.
// A nil shelf ignores it.
func (sh *slabShelf) noteHigh(records int64) {
	if sh == nil {
		return
	}
	sh.store.mu.Lock()
	sh.high = max(sh.high, records*sh.size)
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
