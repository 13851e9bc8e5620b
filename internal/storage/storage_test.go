package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"testing/quick"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return map[string]Backend{"mem": NewMemBackend(), "file": fb}
}

func TestBackendWriteReadRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			off1, err := b.Write("s", []byte("hello"))
			if err != nil {
				t.Fatal(err)
			}
			off2, err := b.Write("s", []byte("world"))
			if err != nil {
				t.Fatal(err)
			}
			if off1 != 0 || off2 != 5 {
				t.Errorf("offsets %d,%d want 0,5", off1, off2)
			}
			got, err := b.Read("s", 5, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("world")) {
				t.Errorf("read %q, want world", got)
			}
			if sz, _ := b.Size("s"); sz != 10 {
				t.Errorf("size %d, want 10", sz)
			}
			if err := b.Truncate("s"); err != nil {
				t.Fatal(err)
			}
			if sz, _ := b.Size("s"); sz != 0 {
				t.Errorf("size after truncate %d, want 0", sz)
			}
		})
	}
}

func TestBackendStreamsAreIndependent(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			b.Write("a", []byte("aaa"))
			b.Write("b", []byte("bbb"))
			got, err := b.Read("a", 0, 3)
			if err != nil || !bytes.Equal(got, []byte("aaa")) {
				t.Errorf("stream a corrupted: %q %v", got, err)
			}
		})
	}
}

func TestMemBackendReadBeyondEnd(t *testing.T) {
	b := NewMemBackend()
	b.Write("s", []byte("abc"))
	if _, err := b.Read("s", 1, 5); err == nil {
		t.Error("read beyond end should error")
	}
	if _, err := b.Read("nope", 0, 1); err == nil {
		t.Error("unknown stream should error")
	}
}

func TestBackendUnknownStreamBehaviorAgrees(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.Read("nope", 0, 1); !errors.Is(err, ErrUnknownStream) {
				t.Errorf("Read: err = %v, want ErrUnknownStream", err)
			}
			if _, err := b.Size("nope"); !errors.Is(err, ErrUnknownStream) {
				t.Errorf("Size: err = %v, want ErrUnknownStream", err)
			}
			if err := b.Truncate("nope"); err != nil {
				t.Errorf("Truncate: %v, want nil no-op", err)
			}
			// None of the probes may have brought the stream into being.
			if _, err := b.Size("nope"); !errors.Is(err, ErrUnknownStream) {
				t.Errorf("Size after probes: err = %v, want ErrUnknownStream", err)
			}
			// A written-then-truncated stream stays known with size 0.
			b.Write("s", []byte("data"))
			if err := b.Truncate("s"); err != nil {
				t.Fatal(err)
			}
			sz, err := b.Size("s")
			if err != nil || sz != 0 {
				t.Errorf("Size after truncate = %d, %v; want 0, nil", sz, err)
			}
		})
	}
}

func TestFileBackendWriteErrorIsNotUnknownStream(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// With the base directory gone, a Write fails with a real I/O error;
	// it must not masquerade as the read-only "unknown stream" condition.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, err = b.Write("s", []byte("x"))
	if err == nil {
		t.Fatal("write into a removed directory should fail")
	}
	if errors.Is(err, ErrUnknownStream) {
		t.Errorf("write error %v wrongly reports ErrUnknownStream", err)
	}
}

func TestFileBackendReadPathCreatesNoFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Read("ghost", 0, 1)
	b.Size("ghost")
	b.Truncate("ghost")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("read-only probes left %d files behind", len(entries))
	}
}

func chunk(i int) []byte { return []byte(fmt.Sprintf("chunk-%03d", i)) }

func TestNextChunkServesEachExactlyOnce(t *testing.T) {
	s := NewStore(0, 2, NewMemBackend())
	for i := 0; i < 10; i++ {
		if err := s.PutChunk(EdgeSet, 1, chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for {
		data, ok, err := s.NextChunk(EdgeSet, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[string(data)] {
			t.Fatalf("chunk %q served twice", data)
		}
		seen[string(data)] = true
	}
	if len(seen) != 10 {
		t.Errorf("served %d distinct chunks, want 10", len(seen))
	}
	// A second pass without reset serves nothing.
	if _, ok, _ := s.NextChunk(EdgeSet, 1); ok {
		t.Error("chunk served after exhaustion without reset")
	}
}

func TestResetConsumptionRewinds(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutChunk(EdgeSet, 0, chunk(1))
	s.NextChunk(EdgeSet, 0)
	s.ResetConsumption(EdgeSet, 0)
	if _, ok, _ := s.NextChunk(EdgeSet, 0); !ok {
		t.Error("chunk not served again after reset")
	}
}

func TestRemainingBytes(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutChunk(UpdateSet, 0, make([]byte, 100))
	s.PutChunk(UpdateSet, 0, make([]byte, 50))
	if got := s.RemainingBytes(UpdateSet, 0); got != 150 {
		t.Errorf("remaining %d, want 150", got)
	}
	s.NextChunk(UpdateSet, 0)
	if got := s.RemainingBytes(UpdateSet, 0); got != 50 {
		t.Errorf("remaining after one consume %d, want 50", got)
	}
	if got := s.TotalBytes(UpdateSet, 0); got != 150 {
		t.Errorf("total %d, want 150", got)
	}
}

func TestDeleteUpdatesClears(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutChunk(UpdateSet, 0, chunk(1))
	var released []any
	s.DeleteUpdates(0, func(held any) { released = append(released, held) })
	if len(released) != 1 || !bytes.Equal(released[0].([]byte), chunk(1)) {
		t.Errorf("DeleteUpdates handed back %q, want the one chunk put", released)
	}
	if _, ok, _ := s.NextChunk(UpdateSet, 0); ok {
		t.Error("update chunk survived deletion")
	}
	if s.ChunkCount(UpdateSet, 0) != 0 || s.TotalBytes(UpdateSet, 0) != 0 {
		t.Error("counters not cleared")
	}
	// Writing after delete works.
	if err := s.PutChunk(UpdateSet, 0, chunk(2)); err != nil {
		t.Fatal(err)
	}
	data, ok, _ := s.NextChunk(UpdateSet, 0)
	if !ok || !bytes.Equal(data, chunk(2)) {
		t.Errorf("after delete+put: got %q ok=%v", data, ok)
	}
}

// TestHeldChunksAreModeled: every chunk the store keeps comes back as the
// backing array it was handed — a held update slab, a PutChunk'd byte
// chunk, a vertex chunk — never a copy. A held chunk is counted at its
// modeled length rather than its memory, and DeleteUpdates hands it back.
func TestHeldChunksAreModeled(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	recs := make([]uint64, 10) // 80 bytes of memory, modeled at 12 a record
	s.HoldChunk(UpdateSet, 0, recs, 120)
	s.HoldChunk(UpdateSet, 0, recs[:5], 60)
	if got := s.RemainingBytes(UpdateSet, 0); got != 180 {
		t.Errorf("remaining %d, want the modeled 180", got)
	}
	idx, length, ok := s.ConsumeChunk(UpdateSet, 0)
	if !ok || length != 120 {
		t.Fatalf("consumed ok=%v length %d, want the modeled 120", ok, length)
	}
	if held := s.HeldChunk(UpdateSet, 0, idx).([]uint64); len(held) != len(recs) || &held[0] != &recs[0] {
		t.Error("held chunk came back as a copy")
	}
	if got := s.RemainingBytes(UpdateSet, 0); got != 60 {
		t.Errorf("remaining after one consume %d, want 60", got)
	}
	var released []int // lengths of the payloads handed back, in order
	s.DeleteUpdates(0, func(held any) { released = append(released, len(held.([]uint64))) })
	if !slices.Equal(released, []int{10, 5}) {
		t.Errorf("DeleteUpdates handed back payloads of %v records, want [10 5]", released)
	}
	if _, _, ok := s.ConsumeChunk(UpdateSet, 0); ok || s.ChunkCount(UpdateSet, 0) != 0 || s.TotalBytes(UpdateSet, 0) != 0 {
		t.Error("held chunks survived deletion")
	}

	edge := chunk(2)
	if err := s.PutChunk(EdgeSet, 0, edge); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.NextChunk(EdgeSet, 0)
	if err != nil || !ok || len(data) != len(edge) || &data[0] != &edge[0] {
		t.Errorf("PutChunk'd chunk came back as %q ok=%v err=%v, want the same backing array", data, ok, err)
	}
	if got := s.TotalBytes(EdgeSet, 0); got != int64(len(edge)) {
		t.Errorf("byte chunk counted at %d, want its length %d", got, len(edge))
	}
	vert := []byte("v0")
	s.PutVertexChunk(0, 0, vert)
	if got, ok := s.GetVertexChunk(0, 0); !ok || len(got) != len(vert) || &got[0] != &vert[0] {
		t.Errorf("vertex chunk came back as %q ok=%v, want the same backing array", got, ok)
	}
}

func TestVertexChunksArePositional(t *testing.T) {
	s := NewStore(0, 1, NewMemBackend())
	s.PutVertexChunk(0, 3, []byte("v3"))
	s.PutVertexChunk(0, 1, []byte("v1"))
	got, ok := s.GetVertexChunk(0, 3)
	if !ok || !bytes.Equal(got, []byte("v3")) {
		t.Errorf("chunk 3: %q ok=%v", got, ok)
	}
	// Overwrite repoints.
	s.PutVertexChunk(0, 3, []byte("v3b"))
	got, _ = s.GetVertexChunk(0, 3)
	if !bytes.Equal(got, []byte("v3b")) {
		t.Errorf("chunk 3 after overwrite: %q", got)
	}
	if _, ok := s.GetVertexChunk(0, 1); !ok {
		t.Error("chunk 1 missing")
	}
	if _, ok := s.GetVertexChunk(0, 9); ok {
		t.Error("missing vertex chunk reported present")
	}
}

func TestVertexChunkHomeDeterministicAndUniform(t *testing.T) {
	const machines = 8
	counts := make([]int, machines)
	for p := 0; p < 64; p++ {
		for c := 0; c < 64; c++ {
			h := VertexChunkHome(p, c, machines)
			if h != VertexChunkHome(p, c, machines) {
				t.Fatal("placement not deterministic")
			}
			if h < 0 || h >= machines {
				t.Fatalf("home %d out of range", h)
			}
			counts[h]++
		}
	}
	// 4096 placements over 8 machines: expect 512 each; allow ±25%.
	for m, c := range counts {
		if c < 384 || c > 640 {
			t.Errorf("machine %d got %d placements, want 512 +- 128", m, c)
		}
	}
}

func TestStoreKindsAreIndependent(t *testing.T) {
	s := NewStore(0, 2, NewMemBackend())
	s.PutChunk(EdgeSet, 0, chunk(1))
	s.PutChunk(UpdateSet, 0, chunk(2))
	s.PutChunk(EdgeSet, 1, chunk(3))
	e0, _, _ := s.NextChunk(EdgeSet, 0)
	u0, _, _ := s.NextChunk(UpdateSet, 0)
	e1, _, _ := s.NextChunk(EdgeSet, 1)
	if !bytes.Equal(e0, chunk(1)) || !bytes.Equal(u0, chunk(2)) || !bytes.Equal(e1, chunk(3)) {
		t.Error("sets interfered with each other")
	}
}

func TestExactlyOnceProperty(t *testing.T) {
	// Property: any interleaving of NextChunk calls across "stealers"
	// (multiple consumers of the same store) serves each chunk at most
	// once and collectively exactly once.
	prop := func(nChunks uint8, seed int64) bool {
		n := int(nChunks%32) + 1
		s := NewStore(0, 1, NewMemBackend())
		for i := 0; i < n; i++ {
			s.PutChunk(EdgeSet, 0, chunk(i))
		}
		rng := rand.New(rand.NewSource(seed))
		served := 0
		for consumers := 0; consumers < 3; consumers++ {
			for rng.Intn(4) != 0 { // each consumer grabs a random run
				_, ok, err := s.NextChunk(EdgeSet, 0)
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				served++
			}
		}
		// Drain the rest.
		for {
			_, ok, _ := s.NextChunk(EdgeSet, 0)
			if !ok {
				break
			}
			served++
		}
		return served == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDirectoryPlacementBalances(t *testing.T) {
	d := NewDirectory(4, rand.New(rand.NewSource(1)))
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[d.Place(EdgeSet, 0)]++
	}
	for m, c := range counts {
		if c != 100 {
			t.Errorf("machine %d placed %d chunks, want exactly 100 (least-loaded)", m, c)
		}
	}
}

func TestDirectoryLocateConsumesExactlyOnce(t *testing.T) {
	d := NewDirectory(3, rand.New(rand.NewSource(2)))
	for i := 0; i < 10; i++ {
		d.Place(UpdateSet, 1)
	}
	found := 0
	for {
		_, ok := d.Locate(UpdateSet, 1)
		if !ok {
			break
		}
		found++
	}
	if found != 10 {
		t.Errorf("located %d chunks, want 10", found)
	}
	d.Reset(UpdateSet, 1)
	if d.Remaining(UpdateSet, 1) != 10 {
		t.Errorf("after reset remaining = %d, want 10", d.Remaining(UpdateSet, 1))
	}
	d.Delete(UpdateSet, 1)
	if d.Remaining(UpdateSet, 1) != 0 {
		t.Error("delete did not clear directory")
	}
}

func TestFileBackendPersistsAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1.Write("s", []byte("persist"))
	b1.Close()
	b2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got, err := b2.Read("s", 0, 7)
	if err != nil || !bytes.Equal(got, []byte("persist")) {
		t.Errorf("got %q %v, want persist", got, err)
	}
}
