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

// Ring is a fixed-capacity buffer with drop-oldest overflow. It is
// generic over the record type: the engines' flight recorders hold
// drive.Span, the service's WAL ops timeline holds its own record.
type Ring[T any] struct {
	mu      sync.Mutex
	spans   []T    // circular storage, len == cap
	head    int    // index of the oldest span
	size    int    // live spans, ≤ len(spans)
	dropped uint64 // spans overwritten since creation
}

// NewRing returns a ring holding at most capacity spans; a
// non-positive capacity is bumped to 1 so Record always has a slot.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{spans: make([]T, capacity)}
}

// Record appends s, evicting the oldest span when full. Safe for
// concurrent use; the critical section is one span copy.
func (r *Ring[T]) Record(s T) {
	r.mu.Lock()
	if r.size == len(r.spans) {
		r.spans[r.head] = s
		r.head = (r.head + 1) % len(r.spans)
		r.dropped++
	} else {
		r.spans[(r.head+r.size)%len(r.spans)] = s
		r.size++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first plus the number
// dropped to overflow. The slice is a copy; the ring keeps recording.
func (r *Ring[T]) Snapshot() ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.size)
	for i := 0; i < r.size; i++ {
		out[i] = r.spans[(r.head+i)%len(r.spans)]
	}
	return out, r.dropped
}

// Dropped returns the overflow count alone.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
