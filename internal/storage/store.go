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

// chunkRef locates one stored chunk inside a stream, or holds it: a held
// chunk (HoldChunk) never reaches the backend, and length is the modeled
// size it is charged at.
type chunkRef struct {
	offset int64
	length int
	held   any
}

// chunkSet is the per-(kind, partition) collection of chunks on one
// storage engine, with the iteration-scoped consumption cursor §6.3
// requires: a storage engine keeps track of which chunks have already been
// consumed during the current iteration and serves any unconsumed chunk.
// Each set owns its backend stream, so edge generations can be promoted by
// swapping sets.
type chunkSet struct {
	stream   string
	chunks   []chunkRef
	consumed int
	bytes    int64
}

// Store is one machine's storage engine state. Methods are not safe for
// concurrent use; in the simulation all calls are serialized by the DES
// scheduler, mirroring the single storage-engine thread of §7.
type Store struct {
	machine   int
	nparts    int
	backend   Backend
	edges     []*chunkSet
	updates   []*chunkSet
	edgesNext []*chunkSet
	edgeGen   []int // next edge generation number per partition
	// vertexChunks maps chunk index -> ref for each partition; vertex
	// chunks are addressed positionally (§6.4), not consumed.
	vertexChunks []map[int]chunkRef
}

// NewStore creates the storage engine for one machine covering nparts
// streaming partitions.
func NewStore(machine, nparts int, backend Backend) *Store {
	s := &Store{
		machine:      machine,
		nparts:       nparts,
		backend:      backend,
		edges:        make([]*chunkSet, nparts),
		updates:      make([]*chunkSet, nparts),
		edgesNext:    make([]*chunkSet, nparts),
		edgeGen:      make([]int, nparts),
		vertexChunks: make([]map[int]chunkRef, nparts),
	}
	for p := 0; p < nparts; p++ {
		s.edges[p] = &chunkSet{stream: fmt.Sprintf("edges.g0.p%d", p)}
		s.edgesNext[p] = &chunkSet{stream: fmt.Sprintf("edges.g1.p%d", p)}
		s.edgeGen[p] = 1
		s.updates[p] = &chunkSet{stream: fmt.Sprintf("updates.p%d", p)}
		s.vertexChunks[p] = make(map[int]chunkRef)
	}
	return s
}

// Machine returns the machine index this store belongs to.
func (s *Store) Machine() int { return s.machine }

func (s *Store) set(kind SetKind, part int) *chunkSet {
	if part < 0 || part >= s.nparts {
		panic(fmt.Sprintf("storage: partition %d out of range [0,%d)", part, s.nparts))
	}
	switch kind {
	case EdgeSet:
		return s.edges[part]
	case UpdateSet:
		return s.updates[part]
	case EdgeSetNext:
		return s.edgesNext[part]
	default:
		panic("storage: " + kind.String() + " is not chunk-consumed; use vertex accessors")
	}
}

// PutChunk appends a chunk of edges or updates for a partition.
func (s *Store) PutChunk(kind SetKind, part int, data []byte) error {
	cs := s.set(kind, part)
	off, err := s.backend.Write(cs.stream, data)
	if err != nil {
		return err
	}
	cs.chunks = append(cs.chunks, chunkRef{offset: off, length: len(data)})
	cs.bytes += int64(len(data))
	return nil
}

// HoldChunk appends a chunk of a partition's set by reference: payload is
// neither copied nor written to the backend, and HeldChunk hands the same
// value back. length is the chunk's modeled size, what ConsumeChunk,
// RemainingBytes and TotalBytes report for it. The DES driver holds its
// update chunks this way — typed record slabs charged at records ×
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

// NextChunk returns any not-yet-consumed chunk of the given set and marks
// it consumed, or ok=false when every local chunk has been served this
// iteration (the storage engine then tells the requester it has nothing
// left, §6.3). It composes ConsumeChunk and ReadChunkAt, the primitives
// the engine uses directly to avoid re-reading pre-read chunks.
func (s *Store) NextChunk(kind SetKind, part int) (data []byte, ok bool, err error) {
	idx, _, ok := s.ConsumeChunk(kind, part)
	if !ok {
		return nil, false, nil
	}
	data, err = s.ReadChunkAt(kind, part, idx)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// ConsumeChunk advances the consumption cursor of the given set without
// reading the data, returning the consumed chunk's cursor index and byte
// length (a held chunk's modeled one). Callers that already hold the
// chunk's bytes (the engine's pre-dispatched compute tasks) use it to skip
// the backend read; ReadChunkAt recovers the data for a given index when
// needed, HeldChunk a held chunk's payload.
func (s *Store) ConsumeChunk(kind SetKind, part int) (idx, length int, ok bool) {
	cs := s.set(kind, part)
	if cs.consumed >= len(cs.chunks) {
		return 0, 0, false
	}
	idx = cs.consumed
	cs.consumed++
	return idx, cs.chunks[idx].length, true
}

// ReadChunkAt returns the data of chunk idx of the given set, regardless
// of consumption state.
func (s *Store) ReadChunkAt(kind SetKind, part, idx int) ([]byte, error) {
	cs := s.set(kind, part)
	if idx < 0 || idx >= len(cs.chunks) {
		return nil, fmt.Errorf("storage: machine %d has no chunk %d of %v partition %d", s.machine, idx, kind, part)
	}
	ref := cs.chunks[idx]
	return s.backend.Read(cs.stream, ref.offset, ref.length)
}

// UnconsumedChunkData reads every not-yet-consumed chunk of the given set
// in cursor order without consuming anything, returning the chunk payloads
// and the cursor index of the first one. The engine uses it to pre-read a
// stream's chunks for its compute workers; consumption (and its device
// charge) still happens request by request through ConsumeChunk.
func (s *Store) UnconsumedChunkData(kind SetKind, part int) (data [][]byte, base int, err error) {
	cs := s.set(kind, part)
	base = cs.consumed
	data = make([][]byte, 0, len(cs.chunks)-base)
	for _, ref := range cs.chunks[base:] {
		d, err := s.backend.Read(cs.stream, ref.offset, ref.length)
		if err != nil {
			return nil, base, err
		}
		data = append(data, d)
	}
	return data, base, nil
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
// completes (§6.1: update sets are deleted after the gather).
func (s *Store) DeleteUpdates(part int) error {
	cs := s.updates[part]
	clear(cs.chunks) // drop the held payloads for the garbage collector
	cs.chunks = cs.chunks[:0]
	cs.consumed = 0
	cs.bytes = 0
	return s.backend.Truncate(cs.stream)
}

// PromoteEdges replaces a partition's edge set with the rewritten
// next-generation set (§6.1 extended model): the old chunks are discarded
// and a fresh next-generation set begins.
func (s *Store) PromoteEdges(part int) error {
	old := s.edges[part]
	s.edges[part] = s.edgesNext[part]
	s.edges[part].consumed = 0
	s.edgeGen[part]++
	s.edgesNext[part] = &chunkSet{stream: fmt.Sprintf("edges.g%d.p%d", s.edgeGen[part], part)}
	return s.backend.Truncate(old.stream)
}

// PutVertexChunk stores (or overwrites) vertex chunk idx of a partition.
// Vertex chunks are fixed-position: masters rewrite them after apply.
func (s *Store) PutVertexChunk(part, idx int, data []byte) error {
	// Overwriting rewrites the chunk at a fresh offset and repoints the
	// index, which keeps the backend append-only (simplest correct model
	// of a rewritten file region).
	off, err := s.backend.Write(fmt.Sprintf("vertices.p%d", part), data)
	if err != nil {
		return err
	}
	s.vertexChunks[part][idx] = chunkRef{offset: off, length: len(data)}
	return nil
}

// GetVertexChunk returns vertex chunk idx of a partition.
func (s *Store) GetVertexChunk(part, idx int) ([]byte, error) {
	ref, ok := s.vertexChunks[part][idx]
	if !ok {
		return nil, fmt.Errorf("storage: machine %d has no vertex chunk %d of partition %d", s.machine, idx, part)
	}
	return s.backend.Read(fmt.Sprintf("vertices.p%d", part), ref.offset, ref.length)
}

// HasVertexChunk reports whether vertex chunk idx of a partition is stored
// here.
func (s *Store) HasVertexChunk(part, idx int) bool {
	_, ok := s.vertexChunks[part][idx]
	return ok
}

// DropVertexChunk forgets vertex chunk idx of a partition (used by the
// storage-failure tests exercising vertex-set replication, §6.6).
func (s *Store) DropVertexChunk(part, idx int) {
	delete(s.vertexChunks[part], idx)
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
