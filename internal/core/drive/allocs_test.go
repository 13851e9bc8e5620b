package drive

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/partition"
	"chaos/internal/raceflag"
	"chaos/internal/storage"
)

// The byte plane costs O(1) allocations per chunk. Codecs are func
// values, so a pointer to a loop-local handed to one puts that local on
// the heap once per record (gas.Codec); these guards make that
// regression fail here instead of in the next benchmark run.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestUpdRecAllocsEightBytes: a record with a 4-byte payload takes 8
// bytes of a slab — what it takes on the wire below 2^32 vertices, so
// there a memory budget counted in encoded bytes is the resident bytes
// too (DESIGN.md, "One protocol, two transports").
func TestUpdRecAllocsEightBytes(t *testing.T) {
	if f, u := unsafe.Sizeof(UpdRec[float32]{}), unsafe.Sizeof(UpdRec[uint32]{}); f != 8 || u != 8 {
		t.Errorf("UpdRec[float32] is %d bytes and UpdRec[uint32] %d, want 8 and 8", f, u)
	}
}

// wccChunk is a WCC kernel over np partitions of 4096 vertices, active
// vertices for partition 0 and one chunk of edges from them, every
// edge emitting an update spread over all partitions.
func wccChunk(t *testing.T, np, edges int) (*Kernel[algorithms.WCCVertex, uint32, uint32], []algorithms.WCCVertex, []byte) {
	t.Helper()
	const n = 1 << 12
	layout, err := partition.FixedLayout(n, 1, np)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(&algorithms.WCC{}, layout)
	lo, hi := layout.Range(0)
	verts := make([]algorithms.WCCVertex, hi-lo)
	for i := range verts {
		verts[i] = algorithms.WCCVertex{Label: uint32(i), Active: true}
	}
	size := k.EdgeFmt.EdgeSize()
	data := make([]byte, edges*size)
	for i := 0; i < edges; i++ {
		k.EdgeFmt.Encode(data[i*size:], graph.Edge{
			Src: lo + graph.VertexID(i)%(hi-lo),
			Dst: graph.VertexID(i*7) % n,
		})
	}
	return k, verts, data
}

func TestScatterChunkAllocs(t *testing.T) {
	skipUnderRace(t)
	const edges = 8192
	k, verts, data := wccChunk(t, 4, edges)
	var emitted int
	scatter := func() {
		var out ScatterOut[uint32]
		k.ScatterChunkTyped(0, 0, verts, data, &out)
		emitted = 0
		for _, recs := range out.Typed {
			emitted += len(recs)
		}
		k.ReleaseScatterOut(&out)
	}
	scatter() // fill the pools
	if emitted != edges {
		t.Fatalf("chunk emitted %d updates, want %d", emitted, edges)
	}
	if got := testing.AllocsPerRun(20, scatter); got > 16 {
		t.Errorf("ScatterChunkTyped on a %d-edge chunk: %v allocs, want at most 16", edges, got)
	}
}

// TestCombineMergeAllocs: a combining run's chunk — ScatterChunkTyped,
// MergeScatter through the combiner buffer, Flush — costs at most one
// allocation once the buffer's maps and the arena are warm. The records
// merge once, in the buffer; a map per destination per chunk fails it.
func TestCombineMergeAllocs(t *testing.T) {
	skipUnderRace(t)
	const edges = 8192
	k, verts, data := wccChunk(t, 6, edges)
	k.Combiner = k.Prog.(*algorithms.WCC)
	k.ChunkBytes = 512 * k.UpdBytes // every destination drains in Add and in Flush
	comb := k.NewCombineBuf()
	var merged, shipped int
	ship := func(_ int, recs []UpdRec[uint32]) {
		shipped += len(recs)
		k.ReleaseRecs(recs)
	}
	roundTrip := func() {
		var out ScatterOut[uint32]
		k.ScatterChunkTyped(0, 0, verts, data, &out)
		merged = k.MergeScatter(&out, comb, nil, ship)
		comb.Flush(ship)
	}
	roundTrip() // fill the maps, the pools and the arena
	if merged != edges || shipped != 1<<12 {
		t.Fatalf("merged %d records and shipped %d, want %d and one per vertex", merged, shipped, edges)
	}
	if got := testing.AllocsPerRun(20, roundTrip); got > 1 {
		t.Errorf("combining round trip of a %d-edge chunk: %v allocs, want at most 1", edges, got)
	}
}

func TestDecodeUpdateChunkAllocs(t *testing.T) {
	skipUnderRace(t)
	k := testKernel(t, 2)
	data := k.AppendRecs(nil, chunkOf(0, 4096))
	recs := make([]UpdRec[float32], 0, 4096)
	got := testing.AllocsPerRun(20, func() { recs = k.DecodeUpdateChunk(recs[:0], data) })
	if got != 0 {
		t.Errorf("DecodeUpdateChunk into a pre-grown slice: %v allocs, want 0", got)
	}
	if len(recs) != 4096 || recs[4095] != chunkOf(0, 4096)[4095] {
		t.Errorf("decoded %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

// TestSpillPutDrainAllocs: a chunk's round trip through the native
// transport — Put, DrainFrom, Load, Release — costs a fixed few
// allocations per chunk whatever the chunk holds. Spilled (budget 0 over
// the file backend) the slab is written as it is and read back into an
// arena slab, with no codec and no staging buffer in between: at most
// 0.5 per chunk, which is each drained bucket's chunk list and its
// drain state. Resident (NewMemTransport's budget no Put reaches) only
// the chunk list is left: at most 0.25 per chunk, one per bucket of four
// chunks, so a closure per chunk or a bucket that regrows fails it.
func TestSpillPutDrainAllocs(t *testing.T) {
	skipUnderRace(t)
	const np, chunks, chunkRecs = 4, 4, 1024
	k := testKernel(t, np)
	backend, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := chunkOf(0, chunkRecs)
	for _, arm := range []struct {
		name    string
		tr      Transport[float32]
		spilled int64 // bytes the first round trip spills
		bound   float64
	}{
		{"spilled", k.NewSpillTransport(0, backend, nil), int64(np * np * chunks * len(recBytes(want))), 0.5},
		{"unbudgeted", k.NewMemTransport(), 0, 0.25},
	} {
		t.Run(arm.name, func(t *testing.T) {
			tr := arm.tr
			defer tr.Close()
			roundTrip := func() {
				for src := 0; src < np; src++ {
					for dst := 0; dst < np; dst++ {
						for c := 0; c < chunks; c++ {
							recs := k.GrabRecs(chunkRecs)[:chunkRecs]
							copy(recs, want)
							tr.Put(src, dst, recs)
						}
					}
				}
				for dst := 0; dst < np; dst++ {
					for src := 0; src < np; src++ {
						for _, pc := range tr.DrainFrom(dst, src) {
							pc.Release(pc.Load())
						}
					}
				}
			}
			roundTrip() // fill the arena
			if st := tr.Stats(); st.SpillBytes != arm.spilled {
				t.Fatalf("SpillBytes = %d, want %d", st.SpillBytes, arm.spilled)
			}
			if got := testing.AllocsPerRun(10, roundTrip) / (np * np * chunks); got > arm.bound {
				t.Errorf("round trip: %v allocs per chunk, want at most %v", got, arm.bound)
			}
		})
	}
}

// TestWirePutAllocs: a destination that streams (it has filled a chunk
// this phase) costs one allocation per further chunk, however many Puts
// fill it; only its first chunk grows by doubling.
func TestWirePutAllocs(t *testing.T) {
	skipUnderRace(t)
	checkWirePutAllocs(t, make([]byte, 600), 64<<10)
	checkWirePutAllocs(t, make([]UpdRec[uint32], 600), 8<<10)
}

func checkWirePutAllocs[T any](t *testing.T, piece []T, limit int) {
	t.Helper()
	var flushed int
	w := NewWire(2, limit, func(int, []T) { flushed++ })
	fill := func(chunks int) { // chunks fill over several Puts, mid-piece
		for i := 0; i < chunks*2*limit/len(piece); i++ {
			w.Put(i%2, piece)
		}
	}
	fill(2) // both destinations are streams from here on
	flushed = 0
	got := testing.AllocsPerRun(10, func() { fill(8) })
	perRun := float64(flushed) / 11 // AllocsPerRun makes one warm-up run
	if perRun < 7 || got > perRun {
		t.Errorf("Wire.Put of %T: %v allocs for %v flushed chunks, want at most 1 per chunk", piece, got, perRun)
	}
}

// TestWireBackingFollowsData: a destination that never fills a chunk
// holds at most twice what it carries (or the 4 KiB floor), whatever
// the chunk size, and a phase end forgets which destinations streamed.
// The rule is in bytes of memory, whatever the record size.
func TestWireBackingFollowsData(t *testing.T) {
	checkWireBacking(t, make([]byte, 24))
	checkWireBacking(t, make([]UpdRec[uint32], 3))
}

// checkWireBacking runs the rule over piece, 24 bytes of records.
func checkWireBacking[T any](t *testing.T, piece []T) {
	t.Helper()
	size := int(unsafe.Sizeof(piece[0]))
	const limitBytes = 4 << 20
	limit := limitBytes / size
	var chunks [][]T
	w := NewWire(3, limit, func(_ int, c []T) { chunks = append(chunks, c) })
	for i := 0; i < 1000; i++ {
		w.Put(0, piece)
	}
	w.Put(1, piece)
	for i := 0; i < limit/len(piece)+1; i++ { // one full chunk and an 8-byte tail
		w.Put(2, piece)
	}
	w.FlushPartials()
	w.Put(2, piece) // next phase: destination 2 is sparse again
	w.FlushPartials()
	want := []struct{ len, maxCap int }{
		{limitBytes, limitBytes}, {24000, 48000}, {24, minChunkCap}, {8, limitBytes}, {24, minChunkCap},
	}
	if len(chunks) != len(want) {
		t.Fatalf("%T: flushed %d chunks, want %d", piece, len(chunks), len(want))
	}
	for i, c := range chunks {
		if len(c)*size != want[i].len || cap(c)*size > want[i].maxCap {
			t.Errorf("%T chunk %d: %d bytes on a backing of %d, want %d bytes on at most %d", piece, i, len(c)*size, cap(c)*size, want[i].len, want[i].maxCap)
		}
	}
}

// TestWireCutsRecordsAsBytes: a Wire over typed update records flushes
// the chunks, in the order, that a Wire over the same records encoded
// flushes — the DES driver's chunk cuts, and the placement draws behind
// each flush, depend on record counts only.
func TestWireCutsRecordsAsBytes(t *testing.T) {
	const np, limit = 3, 100 // limit in records
	layout, err := partition.FixedLayout(1<<10, 1, np)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(&algorithms.WCC{}, layout)
	type flush struct {
		dst  int
		recs []UpdRec[uint32]
	}
	var typed, encoded []flush
	tw := NewWire(np, limit, func(dst int, c []UpdRec[uint32]) { typed = append(typed, flush{dst, slices.Clone(c)}) })
	bw := NewWire(np, limit*k.UpdBytes, func(dst int, c []byte) { encoded = append(encoded, flush{dst, k.DecodeUpdateChunk(nil, c)}) })
	rng := rand.New(rand.NewSource(1))
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < 200; i++ {
			dst := rng.Intn(np)
			recs := make([]UpdRec[uint32], rng.Intn(2*limit))
			for j := range recs {
				recs[j] = UpdRec[uint32]{Off: rng.Uint32(), Val: rng.Uint32()}
			}
			if i%17 == 0 {
				tw.PutChunk(dst, recs)
				bw.PutChunk(dst, k.AppendRecs(nil, recs))
			} else {
				tw.Put(dst, recs)
				bw.Put(dst, k.AppendRecs(nil, recs))
			}
		}
		tw.FlushPartials()
		bw.FlushPartials()
	}
	if len(typed) != len(encoded) {
		t.Fatalf("typed Wire flushed %d chunks, encoded Wire %d", len(typed), len(encoded))
	}
	for i := range typed {
		if typed[i].dst != encoded[i].dst || !slices.Equal(typed[i].recs, encoded[i].recs) {
			t.Fatalf("flush %d: typed Wire sent %d records to %d, encoded Wire %d records to %d",
				i, len(typed[i].recs), typed[i].dst, len(encoded[i].recs), encoded[i].dst)
		}
	}
}
