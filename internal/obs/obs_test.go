package obs

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"chaos/internal/core/drive"
)

// A full ring must drop the oldest spans — never block, never grow —
// which is what lets a slow (or absent) trace consumer coexist with
// the engines' hot path.
func TestRingDropsOldestWhenFull(t *testing.T) {
	const capacity, total = 8, 30
	r := NewRing[drive.Span](capacity)
	for i := 0; i < total; i++ {
		r.Record(drive.Span{Iter: i, Phase: drive.PhaseScatter})
	}
	spans, dropped := r.Snapshot()
	if len(spans) != capacity {
		t.Fatalf("ring holds %d spans, want %d", len(spans), capacity)
	}
	if dropped != total-capacity {
		t.Fatalf("dropped = %d, want %d", dropped, total-capacity)
	}
	// Oldest-first snapshot of the newest `capacity` spans.
	for i, s := range spans {
		if want := total - capacity + i; s.Iter != want {
			t.Fatalf("spans[%d].Iter = %d, want %d (oldest must be evicted first)", i, s.Iter, want)
		}
	}
	if r.Dropped() != total-capacity {
		t.Fatalf("Dropped() = %d, want %d", r.Dropped(), total-capacity)
	}
}

// Concurrent writers — the native driver's machine goroutines — must
// never lose the ring's invariants: size stays bounded and every
// record is either retained or counted as dropped.
func TestRingConcurrentRecord(t *testing.T) {
	const capacity, writers, perWriter = 16, 8, 500
	r := NewRing[drive.Span](capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(drive.Span{Machine: w, Iter: i})
			}
		}(w)
	}
	wg.Wait()
	spans, dropped := r.Snapshot()
	if len(spans) != capacity {
		t.Fatalf("ring holds %d spans, want %d", len(spans), capacity)
	}
	if got, want := uint64(len(spans))+dropped, uint64(writers*perWriter); got != want {
		t.Fatalf("retained+dropped = %d, want %d", got, want)
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := NewRing[drive.Span](8)
	r.Record(drive.Span{Iter: 3})
	r.Record(drive.Span{Iter: 4})
	spans, dropped := r.Snapshot()
	if dropped != 0 || len(spans) != 2 || spans[0].Iter != 3 || spans[1].Iter != 4 {
		t.Fatalf("snapshot = %v dropped=%d, want iters [3 4] dropped=0", spans, dropped)
	}
}

// A ring's storage follows what it records, not its cap: the service
// keeps every executed job's recorder (cap 8192 by default) while the
// job stays in history, and a small job records a few dozen spans.
// Averaged over many rings so the runtime's own allocations vanish.
func TestRingAllocs(t *testing.T) {
	const capacity, spans, rings = 8192, 10, 100
	keep := make([]*Ring[drive.Span], rings)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewRing[drive.Span](capacity)
		for j := 0; j < spans; j++ {
			keep[i].Record(drive.Span{Iter: j})
		}
	}
	runtime.ReadMemStats(&after)
	perRing := float64(after.TotalAlloc-before.TotalAlloc) / rings
	capBytes := float64(capacity) * float64(unsafe.Sizeof(drive.Span{}))
	if perRing >= 0.01*capBytes {
		t.Errorf("a ring holding %d spans allocated %.0f B, want under 1%% of its cap's %.0f B", spans, perRing, capBytes)
	}
	for _, r := range keep {
		if got, _ := r.Snapshot(); len(got) != spans || got[spans-1].Iter != spans-1 {
			t.Fatalf("snapshot %v, want %d spans in order", got, spans)
		}
	}
}
