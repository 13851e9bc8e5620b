package drive

import (
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/partition"
	"chaos/internal/storage"
)

func testKernel(t *testing.T, np int) *Kernel[algorithms.PRVertex, float32, float64] {
	t.Helper()
	layout, err := partition.FixedLayout(1<<10, 1, np)
	if err != nil {
		t.Fatal(err)
	}
	return NewKernel(&algorithms.PageRank{Iterations: 1}, layout)
}

// TestReleaseBufRetentionBound pins the pool-retention bound of byte
// buffers: one whose capacity exceeds RetainBytes is dropped on release
// instead of parked in the pool, so one giant iteration cannot pin its
// peak allocation for the rest of the run. (Record slabs follow the
// arena's trim rule: arena_test.go.)
func TestReleaseBufRetentionBound(t *testing.T) {
	k := testKernel(t, 2)
	k.RetainBytes = 1 << 10
	oversized := k.RetainBytes*2 + 7
	k.ReleaseBuf(make([]byte, 0, oversized))
	if got := k.GrabBuf(); cap(got) == oversized {
		t.Fatalf("oversized buffer (cap %d) came back from the pool despite RetainBytes=%d",
			oversized, k.RetainBytes)
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

// TestSpillTransportRoundTrip forces every chunk through the disk path
// (budget 0 keeps nothing resident) and checks the drained fold order
// and contents match production order exactly, streams are truncated
// after the last release, and the cleanup hook runs on Close.
func TestSpillTransportRoundTrip(t *testing.T) { overBothBackends(t, spillRoundTrip) }

// overBothBackends runs a spill test over the file backend the native
// driver spills to and over the in-memory one.
func overBothBackends(t *testing.T, run func(*testing.T, storage.Backend)) {
	fb, err := storage.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("file", func(t *testing.T) { run(t, fb) })
	t.Run("mem", func(t *testing.T) { run(t, storage.NewMemBackend()) })
}

func spillRoundTrip(t *testing.T, backend storage.Backend) {
	k := testKernel(t, 3)
	cleaned := false
	tr := k.NewSpillTransport(0, backend, func() error { cleaned = true; return nil })

	var want []UpdRec[float32]
	for _, p := range []struct{ src, base int }{{1, 100}, {0, 200}, {1, 300}} {
		c := chunkOf(p.base, 4)
		sb, sn := tr.Put(p.src, 2, append([]UpdRec[float32](nil), c...))
		if sb == 0 || sn == 0 {
			t.Fatalf("zero budget should spill every Put, got (%d, %d)", sb, sn)
		}
	}
	for _, p := range []struct{ src, base int }{{0, 200}, {1, 100}, {1, 300}} {
		want = append(want, chunkOf(p.base, 4)...)
	}

	st := tr.Stats()
	if st.SpillBytes != int64(len(want))*int64(k.UpdBytes) {
		t.Errorf("SpillBytes = %d, want %d", st.SpillBytes, int64(len(want))*int64(k.UpdBytes))
	}
	if st.SpillFiles != 2 { // streams (0,2) and (1,2)
		t.Errorf("SpillFiles = %d, want 2", st.SpillFiles)
	}
	if got := tr.PendingBytes(2); got != int64(len(want))*int64(k.UpdBytes) {
		t.Errorf("PendingBytes = %d, want %d", got, int64(len(want))*int64(k.UpdBytes))
	}

	seq := drainAll[float32](tr, k.Layout.NumPartitions, 2)
	if len(seq) != len(want) {
		t.Fatalf("drained %d records, want %d", len(seq), len(want))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, seq[i], want[i])
		}
	}
	// The last Release of a column's spilled chunks truncates its streams.
	for _, stream := range []string{"upd.s0000.d0002", "upd.s0001.d0002"} {
		if sz, err := backend.Size(stream); err != nil || sz != 0 {
			t.Errorf("stream %s not truncated after drain: size %d, err %v", stream, sz, err)
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

// TestSpillTransportPartialSpill puts chunks under a budget that spills
// some but not all: the drained sequence must still be exactly the
// production sequence (spilled prefix, then the in-memory tail).
//
// The third Put writes three chunks from one encode buffer, so the
// in-memory arm also checks that the backend took its own copy of each
// (storage.Backend: Write does not retain data).
func TestSpillTransportPartialSpill(t *testing.T) { overBothBackends(t, partialSpill) }

func partialSpill(t *testing.T, backend storage.Backend) {
	k := testKernel(t, 2)
	const chunkRecs = 8
	// Budget fits two chunks; the third Put tips over and spills the
	// bucket, the fourth stays resident.
	budget := int64(2*chunkRecs+1) * int64(k.UpdBytes)
	tr := k.NewSpillTransport(budget, backend, nil)
	var want []UpdRec[float32]
	for i := 0; i < 4; i++ {
		c := chunkOf(100*i, chunkRecs)
		want = append(want, c...)
		tr.Put(0, 1, append([]UpdRec[float32](nil), c...))
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
