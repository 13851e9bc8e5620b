package core

import (
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// Protocol messages between computation engines, storage engines, steal
// arbiters and the (optional) central directory. Sizes below are the
// modeled wire sizes; control messages are small and dominated by the
// per-hop latency.
const controlMsgBytes = 64

// chunkReq asks a storage engine for any unconsumed chunk of a partition's
// edge or update set (§6.3: the request names a partition, never a
// particular chunk).
type chunkReq struct {
	kind    storage.SetKind
	part    int
	from    int
	replyTo *sim.Mailbox
}

// chunkReply carries one chunk back, or empty=true when the storage engine
// has no unconsumed chunks left for that partition this iteration. The
// chunk is identified by its cursor index on the serving store, and length
// is what the link charges. payload is what the store holds: an edge
// chunk's bytes, an update chunk's []drive.UpdRec[U] slab. A pre-dispatched
// scatter task already holds its edge chunk, so only the inline path reads
// an edge payload.
type chunkReply struct {
	kind    storage.SetKind
	part    int
	from    int
	idx     int
	length  int
	payload any
	empty   bool
}

// writeChunk appends a chunk of edges or updates on a storage engine, which
// holds payload by reference and acknowledges with a writeAck. An edge
// chunk is the bin's []byte; an update chunk is a []drive.UpdRec[U] slab.
// length is the modeled size every device and link charges: the bin's
// len, or records × UpdBytes, never the slab's memory.
type writeChunk struct {
	kind    storage.SetKind
	part    int
	from    int
	length  int
	payload any
}

// vertexRead fetches vertex chunk idx of a partition.
type vertexRead struct {
	part, idx int
	from      int
	replyTo   *sim.Mailbox
}

// vertexReadReply returns a vertex chunk.
type vertexReadReply struct {
	part, idx int
	data      []byte
}

// vertexWrite stores vertex chunk idx of a partition and acknowledges.
type vertexWrite struct {
	part, idx int
	from      int
	data      []byte
}

// deleteUpdates discards a partition's consumed update set after gather.
type deleteUpdates struct {
	part int
	from int
}

// phase labels the two phases of an iteration.
type phase int

const (
	scatterPhase phase = iota
	gatherPhase
)

func (ph phase) String() string {
	if ph == scatterPhase {
		return "scatter"
	}
	return "gather"
}

// stealPropose is engine from's offer to help with a partition (§5.3).
type stealPropose struct {
	ph      phase
	part    int
	from    int
	replyTo *sim.Mailbox
}

// stealResp is the master's accept/reject answer.
type stealResp struct {
	part     int
	accepted bool
}

// getAccums is the master's request for a stealer's accumulators for a
// partition whose gather the master has finished.
type getAccums struct {
	part    int
	from    int
	replyTo *sim.Mailbox
}

// accumReply carries a stealer's accumulator array (as a typed slice; the
// modeled wire size is len * Program.AccumBytes).
type accumReply struct {
	part   int
	from   int
	accums any
}

// dirOp is a central-directory operation kind (Figure 15 baseline).
type dirOp int

const (
	dirPlace dirOp = iota
	dirLocate
	dirReset
	dirDelete
)

// dirReq is a request to the central directory.
type dirReq struct {
	op      dirOp
	kind    storage.SetKind
	part    int
	from    int
	tag     uint64
	replyTo *sim.Mailbox
}

// dirResp carries the directory's placement/location decision.
type dirResp struct {
	op      dirOp
	kind    storage.SetKind
	part    int
	tag     uint64
	machine int
	ok      bool
}
