package drive

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"chaos/internal/algorithms"
	"chaos/internal/gas"
	"chaos/internal/partition"
	"chaos/internal/storage"
)

func testKernel(t *testing.T, np int) *Kernel[algorithms.PRVertex, float32, float64] {
	t.Helper()
	return kernelOf(t, &algorithms.PageRank{Iterations: 1}, np)
}

// kernelOf is prog's kernel over np partitions of 1024 vertices.
func kernelOf[V, U, A any](t *testing.T, prog gas.Program[V, U, A], np int) *Kernel[V, U, A] {
	t.Helper()
	layout, err := partition.FixedLayout(1<<10, 1, np)
	if err != nil {
		t.Fatal(err)
	}
	return NewKernel(prog, layout)
}

// TestReleaseBufRetentionBound pins the pool-retention bound of byte
// buffers: one whose capacity exceeds DefaultRetainBytes is dropped on
// release instead of parked in the pool, so one giant iteration cannot
// pin its peak allocation for the rest of the run. (Record slabs follow
// the arena's trim rule: arena_test.go.)
func TestReleaseBufRetentionBound(t *testing.T) {
	k := testKernel(t, 2)
	oversized := DefaultRetainBytes*2 + 7
	k.ReleaseBuf(make([]byte, 0, oversized))
	if got := k.GrabBuf(0); cap(got) == oversized {
		t.Fatalf("oversized buffer (cap %d) came back from the pool despite DefaultRetainBytes=%d",
			oversized, DefaultRetainBytes)
	}
}

// chunkOf builds one update chunk with recognizable payloads.
func chunkOf(base int, n int) []UpdRec[float32] {
	recs := make([]UpdRec[float32], n)
	for i := range recs {
		recs[i] = UpdRec[float32]{Off: uint32(base + i), Val: float32(base) + float32(i)/16}
	}
	return recs
}

// drainAll loads and releases every pending chunk of dst, source by
// source over np partitions, returning the concatenated record sequence
// (the fold order the gather path sees).
func drainAll[U any](tr Transport[U], np, dst int) []UpdRec[U] {
	var seq []UpdRec[U]
	for src := 0; src < np; src++ {
		for _, pc := range tr.DrainFrom(dst, src) {
			recs := pc.Load()
			seq = append(seq, recs...)
			pc.Release(recs)
		}
	}
	return seq
}

// TestMemTransportFoldOrder checks the zero-copy transport hands chunks
// back in (source partition, production) order with contents intact.
func TestMemTransportFoldOrder(t *testing.T) {
	k := testKernel(t, 3)
	tr := k.NewMemTransport()
	// Interleave producers: src 2 first, then 0, then 2 again, then 1.
	var want []UpdRec[float32]
	puts := []struct{ src, base int }{{2, 100}, {0, 200}, {2, 300}, {1, 400}}
	for _, p := range puts {
		c := chunkOf(p.base, 5)
		if sb, sn := tr.Put(p.src, 1, append([]UpdRec[float32](nil), c...)); sb != 0 || sn != 0 {
			t.Fatalf("MemTransport.Put reported spilling (%d, %d)", sb, sn)
		}
	}
	// Fold order: src ascending, each src's chunks in production order.
	for _, p := range []struct{ src, base int }{{0, 200}, {1, 400}, {2, 100}, {2, 300}} {
		want = append(want, chunkOf(p.base, 5)...)
	}
	if got := tr.PendingBytes(1); got != int64(len(want))*int64(k.UpdBytes) {
		t.Fatalf("PendingBytes = %d, want %d", got, int64(len(want))*int64(k.UpdBytes))
	}
	seq := drainAll[float32](tr, k.Layout.NumPartitions, 1)
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, seq[i], want[i])
		}
	}
	if tr.PendingBytes(1) != 0 {
		t.Error("column still pending after drain")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillTransportRoundTrip runs each put pattern of spillCases for
// each payload shape the ten programs use, over both backends, and
// checks what the raw form must keep: every Put reports exactly the
// chunks it wrote out and their resident bytes; SpillBytes is records ×
// Sizeof(UpdRec[U]) and SpillFiles the streams written; every chunk and
// PendingBytes count records × UpdBytes whatever went to disk, and
// PendingBytes returns to 0; the drained records are the records put,
// source by source and in production order within a source; every
// stream is truncated after its last release, and no other stream is
// named or written; the cleanup hook runs on Close.
func TestSpillTransportRoundTrip(t *testing.T) {
	overBothBackends(t, func(t *testing.T, backend func(*testing.T) storage.Backend) {
		t.Run("float32", func(t *testing.T) {
			spillRoundTrips(t, testKernel(t, 3), backend, func(i int) float32 { return float32(i)/16 + 0.5 })
		})
		t.Run("uint32", func(t *testing.T) {
			spillRoundTrips(t, kernelOf(t, &algorithms.WCC{}, 3), backend, func(i int) uint32 { return uint32(7*i + 1) })
		})
		t.Run("MCSTUpdate", func(t *testing.T) {
			spillRoundTrips(t, kernelOf(t, &algorithms.MCST{}, 3), backend, func(i int) algorithms.MCSTUpdate {
				return algorithms.MCSTUpdate{Comp: uint64(i)<<33 | 5, W: float32(i) / 8}
			})
		})
		t.Run("MISUpdate", func(t *testing.T) {
			spillRoundTrips(t, kernelOf(t, &algorithms.MIS{}, 3), backend, func(i int) algorithms.MISUpdate {
				return algorithms.MISUpdate{Prio: uint64(i) * 0x9E3779B97F4A7C15, ID: uint32(i), Elim: i%3 == 0}
			})
		})
	})
}

// roundTripChunk records per chunk; every chunk goes to column
// roundTripDst of a three-partition kernel.
const roundTripChunk, roundTripDst = 8, 2

// spillCase is one put pattern of TestSpillTransportRoundTrip: chunk c
// comes from source srcs[c], and its Put must write out spills[c] chunks.
// streams are the only streams the run may name or write.
type spillCase struct {
	name    string
	budget  int // records, or noBudget
	srcs    []int
	spills  []int
	streams []string
}

// noBudget is a spillCase budget no Put reaches: the transport gets
// NewMemTransport's budget, math.MaxInt64 bytes.
const noBudget = -1

var spillCases = []spillCase{
	// Nothing spills: the in-memory run is the budgeted transport whose
	// budget no Put reaches, and it writes and names no stream.
	{name: "unbudgeted", budget: noBudget, srcs: []int{1, 0, 1, 2}, spills: []int{0, 0, 0, 0}},
	// Nothing stays resident: each Put spills its own chunk, and two
	// sources' streams feed one column.
	{name: "zero-budget", budget: 0, srcs: []int{1, 0, 1}, spills: []int{1, 1, 1},
		streams: []string{"upd.s0000.d0002", "upd.s0001.d0002"}},
	// The third Put tips the bucket over and spills all three chunks; the
	// fourth stays resident, so the drain is a spilled prefix and a tail.
	{name: "partial", budget: 2*roundTripChunk + 1, srcs: []int{0, 0, 0, 0}, spills: []int{0, 0, 3, 0},
		streams: []string{"upd.s0000.d0002"}},
}

func spillRoundTrips[V any, U comparable, A any](t *testing.T, k *Kernel[V, U, A], backend func(*testing.T) storage.Backend, val func(int) U) {
	for _, sc := range spillCases {
		t.Run(sc.name, func(t *testing.T) { spillRoundTrip(t, k, backend(t), sc, val) })
	}
}

// overBothBackends runs a spill test over the file backend the native
// driver spills to and over the in-memory one; backend returns a fresh
// one of the subtest's kind.
func overBothBackends(t *testing.T, run func(t *testing.T, backend func(*testing.T) storage.Backend)) {
	t.Run("file", func(t *testing.T) {
		run(t, func(t *testing.T) storage.Backend {
			fb, err := storage.NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fb
		})
	})
	t.Run("mem", func(t *testing.T) {
		run(t, func(*testing.T) storage.Backend { return storage.NewMemBackend() })
	})
}

func spillRoundTrip[V any, U comparable, A any](t *testing.T, k *Kernel[V, U, A], backend storage.Backend, sc spillCase, val func(int) U) {
	recSize := int64(unsafe.Sizeof(UpdRec[U]{}))
	cleaned := false
	budget := int64(sc.budget) * int64(k.UpdBytes)
	if sc.budget == noBudget {
		budget = math.MaxInt64
	}
	tr := k.NewSpillTransport(budget, backend, func() error { cleaned = true; return nil })
	put := make([][]UpdRec[U], len(sc.srcs))
	spilled := 0
	for c, src := range sc.srcs {
		recs := k.GrabRecs(roundTripChunk)[:roundTripChunk]
		for i := range recs {
			n := c*roundTripChunk + i
			recs[i] = UpdRec[U]{Off: uint32(n), Val: val(n)}
		}
		put[c] = slices.Clone(recs)
		sb, sn := tr.Put(src, roundTripDst, recs)
		if wantB := int64(sc.spills[c]*roundTripChunk) * recSize; sb != wantB || sn != sc.spills[c] {
			t.Fatalf("Put %d spilled (%d bytes, %d chunks), want (%d, %d)", c, sb, sn, wantB, sc.spills[c])
		}
		spilled += sc.spills[c]
	}
	// The fold order: source by source, each source's chunks as produced.
	var want []UpdRec[U]
	for src := 0; src < k.Layout.NumPartitions; src++ {
		for c, s := range sc.srcs {
			if s == src {
				want = append(want, put[c]...)
			}
		}
	}
	st := tr.Stats()
	if wantB := int64(spilled*roundTripChunk) * recSize; st.SpillBytes != wantB {
		t.Errorf("SpillBytes = %d, want %d (%d records as resident bytes)", st.SpillBytes, wantB, spilled*roundTripChunk)
	}
	if st.SpillFiles != len(sc.streams) {
		t.Errorf("SpillFiles = %d, want %d", st.SpillFiles, len(sc.streams))
	}
	if got, wantP := tr.PendingBytes(roundTripDst), int64(len(want))*int64(k.UpdBytes); got != wantP {
		t.Errorf("PendingBytes = %d, want %d", got, wantP)
	}

	var seq []UpdRec[U]
	for src := 0; src < k.Layout.NumPartitions; src++ {
		for i, pc := range tr.DrainFrom(roundTripDst, src) {
			recs := pc.Load()
			if wantB := int64(len(recs)) * int64(k.UpdBytes); pc.Bytes != wantB {
				t.Errorf("src %d chunk %d: Bytes = %d, want %d (records × UpdBytes, not the on-disk length)", src, i, pc.Bytes, wantB)
			}
			seq = append(seq, recs...)
			pc.Release(recs)
		}
	}
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, seq[i], want[i])
		}
	}
	if got := tr.PendingBytes(roundTripDst); got != 0 {
		t.Errorf("PendingBytes after drain = %d, want 0", got)
	}
	if got := tr.memBytes.Load(); got != 0 {
		t.Errorf("resident bytes after every Release = %d, want 0", got)
	}
	// The last Release of a bucket's spilled chunks truncates its
	// stream, and a bucket that never spilled has neither a stream name
	// nor a stream.
	for src, row := range tr.rows {
		for dst, b := range row.buckets {
			stream := fmt.Sprintf("upd.s%04d.d%04d", src, dst)
			sz, err := backend.Size(stream)
			switch {
			case !slices.Contains(sc.streams, stream):
				if b.stream != "" || !errors.Is(err, storage.ErrUnknownStream) {
					t.Errorf("bucket (%d, %d) never spilled but has stream %q (size %d, err %v)", src, dst, b.stream, sz, err)
				}
			case b.stream != stream || err != nil || sz != 0:
				t.Errorf("stream %s (bucket's %q) not truncated after drain: size %d, err %v", stream, b.stream, sz, err)
			}
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Error("cleanup hook did not run on Close")
	}
}

// TestStreamingDrainFoldOrder pins the DrainFrom contract on both
// transports: consuming source by source — interleaved with later
// sources still producing, the pipelined phase layout — yields exactly
// the (source partition, chunk production) record sequence a drain
// after every source has finished would, and PendingBytes tracks the undrained remainder atomically.
// The spilling arm runs under a budget that spills part of src 0's
// bucket, so the drained sequence interleaves a spilled prefix with the
// resident tail mid-stream.
func TestStreamingDrainFoldOrder(t *testing.T) {
	k := testKernel(t, 3)
	backend, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunkRecs = 6
	// Budget fits two chunks: src 0's third Put spills its bucket, the
	// fourth chunk stays resident — DrainFrom(1, 0) must hand back the
	// spilled prefix then the mem tail.
	budget := int64(2*chunkRecs+1) * int64(k.UpdBytes)
	transports := map[string]Transport[float32]{
		"mem":   k.NewMemTransport(),
		"spill": k.NewSpillTransport(budget, backend, nil),
	}
	for _, name := range []string{"mem", "spill"} {
		tr := transports[name]
		t.Run(name, func(t *testing.T) {
			var want0, want2 []UpdRec[float32]
			for i := 0; i < 4; i++ {
				c := chunkOf(100*i, chunkRecs)
				want0 = append(want0, c...)
				tr.Put(0, 1, append([]UpdRec[float32](nil), c...))
			}
			// Source 1 emitted nothing; source 2 produces AFTER source 0
			// is already drained (the streaming interleave).
			var got []UpdRec[float32]
			drainFrom := func(src int) {
				for _, pc := range tr.DrainFrom(1, src) {
					recs := pc.Load()
					got = append(got, recs...)
					pc.Release(recs)
				}
			}
			drainFrom(0)
			if len(got) != len(want0) {
				t.Fatalf("src 0 drained %d records, want %d", len(got), len(want0))
			}
			for _, base := range []int{500, 600} {
				c := chunkOf(base, chunkRecs)
				want2 = append(want2, c...)
				tr.Put(2, 1, append([]UpdRec[float32](nil), c...))
			}
			if gotP, wantP := tr.PendingBytes(1), int64(len(want2))*int64(k.UpdBytes); gotP != wantP {
				t.Errorf("PendingBytes after partial drain = %d, want %d", gotP, wantP)
			}
			drainFrom(1)
			drainFrom(2)
			want := append(append([]UpdRec[float32](nil), want0...), want2...)
			if len(got) != len(want) {
				t.Fatalf("drained %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %+v, want %+v (streaming fold order broken)", i, got[i], want[i])
				}
			}
			if tr.PendingBytes(1) != 0 {
				t.Error("column still pending after full streamed drain")
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if st := transports["spill"].Stats(); st.SpillBytes == 0 {
		t.Error("spill arm never spilled; the spilled-prefix interleave went unexercised")
	}
}

// TestEveryUpdateTypeSpills: the raw spill form is only sound for an
// update type that can hold no pointer, and all ten programs' types are
// such types; the types below them are not.
func TestEveryUpdateTypeSpills(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func() error
		ok    bool
	}{
		{"BFS", spillable(&algorithms.BFS{}), true},
		{"WCC", spillable(&algorithms.WCC{}), true},
		{"SSSP", spillable(&algorithms.SSSP{}), true},
		{"PageRank", spillable(&algorithms.PageRank{}), true},
		{"MIS", spillable(&algorithms.MIS{}), true},
		{"MCST", spillable(&algorithms.MCST{}), true},
		{"SCC", spillable(&algorithms.SCC{}), true},
		{"Conductance", spillable(&algorithms.Conductance{}), true},
		{"SpMV", spillable(&algorithms.SpMV{}), true},
		{"BP", spillable(&algorithms.BP{}), true},
		{"[0]*int", CheckSpillable[[0]*int], true},
		{"*uint32", CheckSpillable[*uint32], false},
		{"string", CheckSpillable[string], false},
		{"any", CheckSpillable[any], false},
		{"struct with a slice", CheckSpillable[struct {
			ID   uint32
			Tags []byte
		}], false},
		{"array of maps", CheckSpillable[[2]map[int]int], false},
	} {
		if err := tc.check(); (err == nil) != tc.ok {
			t.Errorf("%s: CheckSpillable = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// spillable is CheckSpillable for prog's update type.
func spillable[V, U, A any](gas.Program[V, U, A]) func() error { return CheckSpillable[U] }

// TestSpillTransportPartialSpill puts chunks under a budget that spills
// some but not all: the drained sequence must still be exactly the
// production sequence (spilled prefix, then the in-memory tail).
//
// A spilled slab goes back to the arena at once, and here the next two
// Puts take the last two spilled slabs and overwrite them before the
// drain, so the in-memory arm also checks that the backend took its own
// copy of each (storage.Backend: Write does not retain data).
func TestSpillTransportPartialSpill(t *testing.T) { overBothBackends(t, partialSpill) }

func partialSpill(t *testing.T, backend func(*testing.T) storage.Backend) {
	k := testKernel(t, 2)
	const chunkRecs = 8
	// Budget fits two chunks; the third Put tips over and spills the
	// bucket, the fourth and fifth stay resident.
	budget := int64(2*chunkRecs+1) * int64(k.UpdBytes)
	tr := k.NewSpillTransport(budget, backend(t), nil)
	var want []UpdRec[float32]
	var spilled []*UpdRec[float32]
	for i := 0; i < 5; i++ {
		recs := k.GrabRecs(chunkRecs)[:chunkRecs]
		if i >= 3 && &recs[0] != spilled[5-i] {
			t.Fatalf("Put %d did not reuse a spilled slab; the overwrite goes unexercised", i)
		}
		copy(recs, chunkOf(100*i, chunkRecs))
		want = append(want, recs...)
		if i < 3 {
			spilled = append(spilled, &recs[0])
		}
		tr.Put(0, 1, recs)
	}
	if st := tr.Stats(); st.SpillBytes == 0 {
		t.Fatal("budget was never exceeded; test is vacuous")
	}
	seq := drainAll[float32](tr, k.Layout.NumPartitions, 1)
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v (spill/mem fold order broken)", i, seq[i], want[i])
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
