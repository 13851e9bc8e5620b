package core

import (
	"fmt"

	"chaos/internal/core/drive"
	"chaos/internal/storage"
)

// This file implements the deterministic compute offload of the engine's
// hot path. The discrete-event simulation stays single-threaded and
// bit-reproducible; the pure per-chunk computation — decoding edge or
// update records, applying the GAS kernel, encoding emitted updates — is
// a side-effect-free function of the chunk bytes and the (read-only,
// phase-stable) vertex set, so it can run on a bounded pool of OS worker
// goroutines while the simulation advances. The pool and the kernels
// themselves live in internal/core/drive, shared with the native driver;
// this file is the DES-side harness that dispatches them and joins their
// results at deterministic points of the simulation's schedule.
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

// gatherChunk is the decode stage of one update chunk: the records are
// consumer-independent, so one decode serves master and stealers alike.
type gatherChunk[U any] struct {
	drive.Task
	recs []drive.UpdRec[U]
}

// streamTasks indexes a stream's pre-dispatched chunk tasks by (storage
// engine, cursor index). base records each store's cursor at build time.
type streamTasks[T any] struct {
	refs int
	base []int
	byID [][]*T
}

// at returns the task for cursor index idx on store s, or nil when the
// stream was built after that chunk was consumed (impossible in the
// current protocol, but the storage engine falls back to an inline read).
func (w *streamTasks[T]) at(s, idx int) *T {
	if w == nil || s >= len(w.byID) {
		return nil
	}
	i := idx - w.base[s]
	if i < 0 || i >= len(w.byID[s]) {
		return nil
	}
	return w.byID[s][i]
}

// acquireStream pre-reads every unconsumed chunk of one of the
// partition's sets and dispatches one task per chunk (task builds it from
// the chunk's bytes). The first streamer — master or stealer, their
// inputs are identical — builds the task set; later streamers share it.
// Chunks consumed between build and a later join were already computed,
// so joining is always safe.
//
// In inline mode there is nothing to overlap with, so no tasks are built:
// the storage engine ships each chunk's bytes with the reply and the
// streamer runs the same kernel at the delivery instant — the identical
// computation on the identical bytes in the identical order, without
// holding a whole stream's scratch buffers live at once.
func acquireStream[T any](stores []*storage.Store, pool *drive.Pool, streams map[int]*streamTasks[T],
	kind storage.SetKind, part int, task func(data []byte) (*T, *drive.Task)) *streamTasks[T] {
	if pool.Inline() {
		return nil
	}
	w := streams[part]
	if w == nil {
		w = &streamTasks[T]{base: make([]int, len(stores)), byID: make([][]*T, len(stores))}
		for s := range stores {
			chunks, base, err := stores[s].UnconsumedChunkData(kind, part)
			if err != nil {
				panic(fmt.Sprintf("core: pre-reading %v chunks: %v", kind, err))
			}
			w.base[s] = base
			for _, data := range chunks {
				t, tk := task(data)
				w.byID[s] = append(w.byID[s], t)
				pool.Submit(tk)
			}
		}
		streams[part] = w
	}
	w.refs++
	return w
}

// releaseStream drops one streamer's reference; the last one frees the
// task set.
func releaseStream[T any](streams map[int]*streamTasks[T], part int) {
	w := streams[part]
	if w == nil {
		return // inline mode builds no task sets
	}
	w.refs--
	if w.refs == 0 {
		delete(streams, part)
	}
}

// acquireScatterStream dispatches one scatter task per unconsumed edge
// chunk of the partition.
func (m *machine[V, U, A]) acquireScatterStream(iter, part int, verts []V) *streamTasks[scatterChunk[U]] {
	eng := m.eng
	return acquireStream(eng.stores, eng.pool, eng.scatterStreams, storage.EdgeSet, part, func(data []byte) (*scatterChunk[U], *drive.Task) {
		sc := &scatterChunk[U]{}
		sc.Fn = func() { eng.kern.ScatterChunk(iter, part, verts, data, &sc.out) }
		return sc, &sc.Task
	})
}

// acquireGatherStream dispatches one decode task per unconsumed update
// chunk of the partition. Decoded records are folded into the consuming
// machine's accumulators by per-machine chained fold tasks (see
// gatherPartition), so the decode itself is shared.
func (eng *engine[V, U, A]) acquireGatherStream(part int) *streamTasks[gatherChunk[U]] {
	return acquireStream(eng.stores, eng.pool, eng.gatherStreams, storage.UpdateSet, part, func(data []byte) (*gatherChunk[U], *drive.Task) {
		gc := &gatherChunk[U]{}
		gc.Fn = func() { gc.recs = eng.kern.DecodeUpdateChunk(nil, data) }
		return gc, &gc.Task
	})
}

// hasChunkTask reports whether a pre-dispatched task covers chunk idx of
// store s, letting the storage engine skip the data read for the reply.
func (eng *engine[V, U, A]) hasChunkTask(kind storage.SetKind, part, s, idx int) bool {
	switch kind {
	case storage.EdgeSet:
		return eng.scatterStreams[part].at(s, idx) != nil
	case storage.UpdateSet:
		return eng.gatherStreams[part].at(s, idx) != nil
	}
	return false
}
