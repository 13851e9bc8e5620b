package core

import "chaos/internal/core/drive"

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
//  2. Tasks are dispatched, and their results consumed, only at fixed
//     points of the simulation's own deterministic schedule: a scatter
//     task when a storage engine serves its chunk, a fold when its chunk
//     is delivered; a result is consumed at its chunk's delivery or a
//     stream's end, always by blocking until it is ready. Worker timing
//     can therefore never reorder simulated events, and a stream has at
//     most its request window (§6.5) of scatter tasks in flight.
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

// scatterDispatch returns the chunkReq hook of one edge stream: a storage
// engine calls it with the edge chunk it serves, and it starts the
// chunk's scatter over verts, the streamer's own vertex set, on the pool.
// The returned *scatterChunk[U] travels in the reply, and the streamer
// joins it at delivery.
func (m *machine[V, U, A]) scatterDispatch(iter, part int, verts []V) func(held any) any {
	eng := m.eng
	return func(held any) any {
		data := held.([]byte)
		sc := &scatterChunk[U]{}
		sc.Fn = func() { eng.kern.ScatterChunkTyped(iter, part, verts, data, &sc.out) }
		eng.pool.Submit(&sc.Task)
		return sc
	}
}
