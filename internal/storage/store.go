package storage

import (
	"fmt"
)

// SetKind names the stored data structures of a partition (§6.1).
type SetKind int

// The stored set kinds. EdgeSetNext holds rewritten edge chunks produced
// during a scatter phase under the extended model of §6.1 ("edges may also
// be rewritten during the computation"); PromoteEdges swaps it in at the
// iteration boundary.
const (
	EdgeSet SetKind = iota
	UpdateSet
	VertexSet
	EdgeSetNext
)

func (k SetKind) String() string {
	switch k {
	case EdgeSet:
		return "edges"
	case UpdateSet:
		return "updates"
	case VertexSet:
		return "vertices"
	case EdgeSetNext:
		return "edges-next"
	default:
		return fmt.Sprintf("SetKind(%d)", int(k))
	}
}

// chunkRef holds one stored chunk: the payload exactly as it was handed
// over, never copied, and length, the modeled size it is charged at.
type chunkRef struct {
	length int
	held   any
}

// chunkSet is the per-(kind, partition) collection of chunks on one
// storage engine, with the iteration-scoped consumption cursor §6.3
// requires: a storage engine keeps track of which chunks have already been
// consumed during the current iteration and serves any unconsumed chunk.
type chunkSet struct {
	chunks   []chunkRef
	consumed int
	bytes    int64
}

// vertexKey addresses one vertex chunk: vertex chunks are fixed-position
// (§6.4), not consumed.
type vertexKey struct{ part, idx int }

// Store is one machine's storage engine state. It holds every chunk by
// reference: the modeled device charges each chunk's I/O, so the bytes
// only need to be kept somewhere, and a Store that keeps references
// cannot fail. Methods are not safe for concurrent use; in the simulation
// all calls are serialized by the DES scheduler, mirroring the single
// storage-engine thread of §7.
type Store struct {
	nparts       int
	edges        []chunkSet
	updates      []chunkSet
	edgesNext    []chunkSet
	vertexChunks map[vertexKey][]byte
}

// NewStore creates the storage engine for one machine covering nparts
// streaming partitions. machine and backend are unused: they remain so
// the benchmark probes' calls compile unchanged.
func NewStore(machine, nparts int, backend Backend) *Store {
	return &Store{
		nparts:       nparts,
		edges:        make([]chunkSet, nparts),
		updates:      make([]chunkSet, nparts),
		edgesNext:    make([]chunkSet, nparts),
		vertexChunks: make(map[vertexKey][]byte),
	}
}

func (s *Store) set(kind SetKind, part int) *chunkSet {
	if part < 0 || part >= s.nparts {
		panic(fmt.Sprintf("storage: partition %d out of range [0,%d)", part, s.nparts))
	}
	switch kind {
	case EdgeSet:
		return &s.edges[part]
	case UpdateSet:
		return &s.updates[part]
	case EdgeSetNext:
		return &s.edgesNext[part]
	default:
		panic("storage: " + kind.String() + " is not chunk-consumed; use vertex accessors")
	}
}

// HoldChunk appends a chunk of a partition's set by reference: payload is
// not copied, and HeldChunk hands the same value back. length is the
// chunk's modeled size, what ConsumeChunk, RemainingBytes and TotalBytes
// report for it. The DES driver stores every edge and update chunk this
// way: edge bins charged at their length, typed update slabs at records ×
// UpdBytes, which no modeled device ever reads.
func (s *Store) HoldChunk(kind SetKind, part int, payload any, length int) {
	cs := s.set(kind, part)
	cs.chunks = append(cs.chunks, chunkRef{length: length, held: payload})
	cs.bytes += int64(length)
}

// HeldChunk returns the payload of chunk idx of the given set, which
// HoldChunk stored, regardless of consumption state.
func (s *Store) HeldChunk(kind SetKind, part, idx int) any {
	return s.set(kind, part).chunks[idx].held
}

// PutChunk holds data as a chunk of the given set, charged at len(data).
// It is a thin wrapper over HoldChunk kept for the benchmark probes; its
// error is always nil.
func (s *Store) PutChunk(kind SetKind, part int, data []byte) error {
	s.HoldChunk(kind, part, data, len(data))
	return nil
}

// NextChunk consumes any not-yet-consumed chunk of the given set and
// returns the bytes PutChunk stored for it, or ok=false when every local
// chunk has been served this iteration (the storage engine then tells the
// requester it has nothing left, §6.3). It is a thin wrapper over
// ConsumeChunk and HeldChunk kept for the benchmark probes; its error is
// always nil.
func (s *Store) NextChunk(kind SetKind, part int) (data []byte, ok bool, err error) {
	idx, _, ok := s.ConsumeChunk(kind, part)
	if !ok {
		return nil, false, nil
	}
	data, _ = s.HeldChunk(kind, part, idx).([]byte)
	return data, true, nil
}

// ConsumeChunk advances the consumption cursor of the given set, returning
// the consumed chunk's cursor index and modeled length. HeldChunk recovers
// its payload; the engine's pre-dispatched compute tasks already hold it.
func (s *Store) ConsumeChunk(kind SetKind, part int) (idx, length int, ok bool) {
	cs := s.set(kind, part)
	if cs.consumed >= len(cs.chunks) {
		return 0, 0, false
	}
	idx = cs.consumed
	cs.consumed++
	return idx, cs.chunks[idx].length, true
}

// UnconsumedChunks returns the payload of every not-yet-consumed chunk of
// the given set in cursor order without consuming anything, and the
// cursor index of the first one. The engine uses it to dispatch a
// stream's compute tasks up front; consumption (and its device charge)
// still happens request by request through ConsumeChunk.
func (s *Store) UnconsumedChunks(kind SetKind, part int) (held []any, base int) {
	cs := s.set(kind, part)
	base = cs.consumed
	held = make([]any, 0, len(cs.chunks)-base)
	for _, ref := range cs.chunks[base:] {
		held = append(held, ref.held)
	}
	return held, base
}

// ResetConsumption rewinds the consumption cursor of a set, the equivalent
// of resetting the file pointer at the end of an iteration (§7).
func (s *Store) ResetConsumption(kind SetKind, part int) {
	s.set(kind, part).consumed = 0
}

// RemainingBytes returns the bytes of unconsumed chunks for a set; masters
// multiply the local figure by the machine count to estimate D for the
// steal criterion (§5.4).
func (s *Store) RemainingBytes(kind SetKind, part int) int64 {
	cs := s.set(kind, part)
	var rem int64
	for _, ref := range cs.chunks[cs.consumed:] {
		rem += int64(ref.length)
	}
	return rem
}

// TotalBytes returns the stored bytes of a set.
func (s *Store) TotalBytes(kind SetKind, part int) int64 {
	return s.set(kind, part).bytes
}

// ChunkCount returns the number of stored chunks of a set.
func (s *Store) ChunkCount(kind SetKind, part int) int {
	return len(s.set(kind, part).chunks)
}

// DeleteUpdates discards a partition's update set after its gather phase
// completes (§6.1: update sets are deleted after the gather). Each held
// payload goes to release, which the caller may reuse at once: the DES
// driver returns its record slabs to the run's arena, every fold of them
// being done by then.
func (s *Store) DeleteUpdates(part int, release func(held any)) {
	cs := s.set(UpdateSet, part)
	for _, ref := range cs.chunks {
		release(ref.held)
	}
	clear(cs.chunks)
	cs.chunks = cs.chunks[:0]
	cs.consumed = 0
	cs.bytes = 0
}

// PromoteEdges replaces a partition's edge set with the rewritten
// next-generation set (§6.1 extended model): the old chunks are dropped,
// never recycled, and a fresh next-generation set begins.
func (s *Store) PromoteEdges(part int) {
	s.edges[part], s.edgesNext[part] = s.edgesNext[part], chunkSet{}
	s.edges[part].consumed = 0
}

// PutVertexChunk stores (or replaces) vertex chunk idx of a partition,
// holding data by reference. Vertex chunks are fixed-position: masters
// rewrite them after apply, each time as fresh bytes, so a reader of the
// previous chunk is never disturbed.
func (s *Store) PutVertexChunk(part, idx int, data []byte) {
	s.vertexChunks[vertexKey{part, idx}] = data
}

// GetVertexChunk returns vertex chunk idx of a partition, or ok=false when
// none is stored here.
func (s *Store) GetVertexChunk(part, idx int) (data []byte, ok bool) {
	data, ok = s.vertexChunks[vertexKey{part, idx}]
	return
}

// DropVertexChunk forgets vertex chunk idx of a partition (used by the
// storage-failure tests exercising vertex-set replication, §6.6).
func (s *Store) DropVertexChunk(part, idx int) {
	delete(s.vertexChunks, vertexKey{part, idx})
}

// VertexChunkHome returns the storage engine that hosts vertex chunk idx of
// partition part, "the equivalent of hashing on the partition identifier
// and the chunk number" (§6.4). It is a pure function so any machine can
// locate vertex chunks without a directory.
func VertexChunkHome(part, idx, machines int) int {
	h := uint64(part)*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return int(h % uint64(machines))
}

// VertexChunkReplica returns the storage engine holding the replica of a
// vertex chunk when vertex-set replication is enabled (§6.6: recovery from
// storage failures "could easily be added by replicating the vertex
// sets"). The replica always lives on a different machine when the cluster
// has more than one.
func VertexChunkReplica(part, idx, machines int) int {
	if machines == 1 {
		return 0
	}
	home := VertexChunkHome(part, idx, machines)
	h := uint64(part)*0xD6E8FEB86659FD93 + uint64(idx)*0xA3B195354A39B70D + 1
	h ^= h >> 33
	r := int(h % uint64(machines-1))
	if r >= home {
		r++
	}
	return r
}
