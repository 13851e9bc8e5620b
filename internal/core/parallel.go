package core

import (
	"fmt"

	"chaos/internal/core/drive"
	"chaos/internal/storage"
)

// This file implements the deterministic compute offload of the engine's
// hot path. The discrete-event simulation stays single-threaded and
// bit-reproducible; the pure per-chunk computation — decoding edge
// records and applying the GAS kernel, folding update records into
// accumulators — is a side-effect-free function of the chunk and the
// (read-only, phase-stable) vertex set, so it can run on a bounded pool
// of OS worker goroutines while the simulation advances. The pool and the
// kernels themselves live in internal/core/drive, shared with the native
// driver; this file is the DES-side harness that dispatches them and
// joins their results at deterministic points of the simulation's
// schedule.
//
// The determinism argument, in three invariants (see DESIGN.md):
//
//  1. Every task is a pure function of inputs fixed at dispatch time.
//     Workers never touch the simulation's RNG, clock, mailboxes or
//     metrics.
//  2. The simulation consumes task results only at fixed points of its
//     own deterministic schedule (a chunk's delivery, a stream's end),
//     always by blocking until the result is ready. Worker timing can
//     therefore never reorder simulated events.
//  3. Tasks whose effects are order-sensitive (gather folds into one
//     machine's accumulators) are chained in delivery order, which is
//     itself deterministic; all other tasks are order-free.
//
// Together these make results, metrics and simulated timestamps
// bit-identical for any worker count, including 1.

// scatterChunk pairs a task with its typed result.
type scatterChunk[U any] struct {
	drive.Task
	out drive.ScatterOut[U]
}

// scatterStream indexes a partition's pre-dispatched scatter tasks by
// (storage engine, cursor index). base records each store's cursor at
// build time; verts is the vertex set the tasks read, their builder's.
type scatterStream[V, U any] struct {
	refs  int
	base  []int
	byID  [][]*scatterChunk[U]
	verts []V
}

// at returns the task for cursor index idx on store s, or nil when the
// stream was built after that chunk was consumed (impossible in the
// current protocol, but the storage engine falls back to an inline read).
func (w *scatterStream[V, U]) at(s, idx int) *scatterChunk[U] {
	if w == nil || s >= len(w.byID) {
		return nil
	}
	i := idx - w.base[s]
	if i < 0 || i >= len(w.byID[s]) {
		return nil
	}
	return w.byID[s][i]
}

// acquireScatterStream pre-reads every unconsumed edge chunk of the
// partition and dispatches one scatter task per chunk. The first streamer
// — master or stealer, their inputs are identical — builds the task set;
// later streamers share it. Chunks consumed between build and a later
// join were already computed, so joining is always safe.
//
// In inline mode there is nothing to overlap with, so no tasks are built:
// the storage engine ships each chunk's bytes with the reply and the
// streamer runs the same kernel at the delivery instant — the identical
// computation on the identical bytes in the identical order, without
// holding a whole stream's scratch buffers live at once.
//
// built reports whether the task set was built over verts, which then
// belongs to the stream until its last release.
func (m *machine[V, U, A]) acquireScatterStream(iter, part int, verts []V) (w *scatterStream[V, U], built bool) {
	eng := m.eng
	if eng.pool.Inline() {
		return nil, false
	}
	w = eng.scatterStreams[part]
	if w == nil {
		built = true
		w = &scatterStream[V, U]{base: make([]int, len(eng.stores)), byID: make([][]*scatterChunk[U], len(eng.stores)), verts: verts}
		for s, st := range eng.stores {
			chunks, base, err := st.UnconsumedChunkData(storage.EdgeSet, part)
			if err != nil {
				panic(fmt.Sprintf("core: pre-reading edge chunks: %v", err))
			}
			w.base[s] = base
			for _, data := range chunks {
				sc := &scatterChunk[U]{}
				sc.Fn = func() { eng.kern.ScatterChunkTyped(iter, part, verts, data, &sc.out) }
				w.byID[s] = append(w.byID[s], sc)
				eng.pool.Submit(&sc.Task)
			}
		}
		eng.scatterStreams[part] = w
	}
	w.refs++
	return w, built
}

// releaseScatterStream drops one streamer's reference and gives back its
// vertex set: at once, unless the task set was built over it. The last
// reference frees the task set and the builder's vertex set: every chunk
// has been consumed by then and every consumer waited for its task.
func (eng *engine[V, U, A]) releaseScatterStream(part int, verts []V, built bool) {
	if !built {
		eng.putVerts(verts)
	}
	w := eng.scatterStreams[part]
	if w == nil {
		return // inline mode builds no task sets
	}
	w.refs--
	if w.refs == 0 {
		delete(eng.scatterStreams, part)
		eng.putVerts(w.verts)
	}
}
