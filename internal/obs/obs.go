// Package obs is the flight-recorder collection side: a bounded,
// drop-oldest ring of drive.Span records and export views over it
// (JSON timeline, Chrome trace_event). The ring is the standard trace
// sink for both drivers — the DES driver feeds it from the simulation
// goroutine, the native driver concurrently from every machine
// goroutine — so Record is mutex-protected and never blocks beyond the
// copy of one span: when the ring is full the oldest span is dropped
// and a counter advanced, keeping a slow or absent consumer from ever
// stalling the hot path.
package obs

import "sync"

// Ring is a bounded buffer with drop-oldest overflow. It is
// generic over the record type: the engines' flight recorders hold
// drive.Span, the service's WAL ops timeline holds its own record.
// Its storage grows by append up to the capacity and wraps from
// there, so a ring that sees a few dozen spans holds a few dozen, not
// its cap: the service keeps a finished job's recorder for as long as
// the job stays in history.
type Ring[T any] struct {
	mu       sync.Mutex
	capacity int    // most spans retained
	spans    []T    // storage, len ≤ capacity; circular once full
	head     int    // index of the oldest span
	dropped  uint64 // spans overwritten since creation
}

// NewRing returns a ring holding at most capacity spans; a
// non-positive capacity is bumped to 1 so Record always has a slot.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{capacity: max(capacity, 1)}
}

// Record appends s, evicting the oldest span when full. Safe for
// concurrent use; the critical section is one span copy (and, while
// the ring is below its cap, the append's occasional regrowth).
func (r *Ring[T]) Record(s T) {
	r.mu.Lock()
	if len(r.spans) < r.capacity {
		r.spans = append(r.spans, s) // head stays 0 until the ring is full
	} else {
		r.spans[r.head] = s
		r.head = (r.head + 1) % r.capacity
		r.dropped++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first plus the number
// dropped to overflow. The slice is a copy; the ring keeps recording.
func (r *Ring[T]) Snapshot() ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.spans))
	out = append(out, r.spans[r.head:]...)
	out = append(out, r.spans[:r.head]...)
	return out, r.dropped
}

// Dropped returns the overflow count alone.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
