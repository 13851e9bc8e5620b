package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"chaos/internal/raceflag"
)

// TestBackendContract drives both backends with a random sequence of
// Write/Read/ReadInto/Truncate/Size calls and compares every answer with
// a plain []byte per stream. It also holds on to what Read returned and
// checks it again at the end: the Backend doc promises that a result stays
// intact across Truncate and later Writes, and that Write does not retain
// the caller's buffer.
func TestBackendContract(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			streams := []string{"a", "b", "c"}
			model := make(map[string][]byte) // present = written at least once
			type view struct{ got, want []byte }
			var views []view

			for step := 0; step < 3000; step++ {
				s := streams[rng.Intn(len(streams))]
				m, known := model[s]
				switch op := rng.Intn(20); {
				case op < 9: // Write, then scribble over the caller's buffer
					data := make([]byte, rng.Intn(48))
					rng.Read(data)
					off, err := b.Write(s, data)
					if err != nil || off != int64(len(m)) {
						t.Fatalf("step %d: Write(%s) = %d, %v; want offset %d", step, s, off, err, len(m))
					}
					model[s] = append(m[:len(m):len(m)], data...)
					for i := range data {
						data[i] ^= 0xff
					}
				case op < 17: // Read a range that may span several Writes
					if !known {
						if _, err := b.Read(s, 0, 1); !errors.Is(err, ErrUnknownStream) {
							t.Fatalf("step %d: Read of unwritten %s: err = %v, want ErrUnknownStream", step, s, err)
						}
						if err := b.ReadInto(s, 0, make([]byte, 1)); !errors.Is(err, ErrUnknownStream) {
							t.Fatalf("step %d: ReadInto of unwritten %s: err = %v, want ErrUnknownStream", step, s, err)
						}
						continue
					}
					if _, err := b.Read(s, int64(len(m)), 1); err == nil || errors.Is(err, ErrUnknownStream) {
						t.Fatalf("step %d: Read past the end of %s: err = %v, want a range error", step, s, err)
					}
					// A destination longer than what the stream holds from
					// the offset on is an error, not a short read.
					if err := b.ReadInto(s, int64(rng.Intn(len(m)+1)), make([]byte, len(m)+1)); err == nil || errors.Is(err, ErrUnknownStream) {
						t.Fatalf("step %d: ReadInto past the end of %s: err = %v, want a range error", step, s, err)
					}
					if len(m) == 0 {
						continue
					}
					off := rng.Intn(len(m))
					n := 1 + rng.Intn(len(m)-off)
					got, err := b.Read(s, int64(off), n)
					if err != nil || !bytes.Equal(got, m[off:off+n]) {
						t.Fatalf("step %d: Read(%s, %d, %d) = %x, %v; want %x", step, s, off, n, got, err, m[off:off+n])
					}
					// ReadInto fills exactly the destination it was given.
					into := bytes.Repeat([]byte{0xEE}, n+2)
					if err := b.ReadInto(s, int64(off), into[1:n+1]); err != nil || !bytes.Equal(into[1:n+1], m[off:off+n]) || into[0] != 0xEE || into[n+1] != 0xEE {
						t.Fatalf("step %d: ReadInto(%s, %d, %d bytes) = %x, %v; want %x inside its guard bytes", step, s, off, n, into, err, m[off:off+n])
					}
					// A view's capacity must not reach its neighbours.
					_ = append(got, 0xEE)
					views = append(views, view{got: got, want: bytes.Clone(got)})
				case op < 19: // Truncate
					if err := b.Truncate(s); err != nil {
						t.Fatalf("step %d: Truncate(%s): %v", step, s, err)
					}
					if known {
						model[s] = nil
					}
				default: // Size
					sz, err := b.Size(s)
					if !known {
						if !errors.Is(err, ErrUnknownStream) {
							t.Fatalf("step %d: Size of unwritten %s: err = %v, want ErrUnknownStream", step, s, err)
						}
					} else if err != nil || sz != int64(len(m)) {
						t.Fatalf("step %d: Size(%s) = %d, %v; want %d", step, s, sz, err, len(m))
					}
				}
			}
			for i, v := range views {
				if !bytes.Equal(v.got, v.want) {
					t.Fatalf("view %d of %d changed after it was handed out: %x, was %x", i, len(views), v.got, v.want)
				}
			}
		})
	}
}

// A stored chunk is read back as a view: no allocation, no copy.
func TestMemBackendReadAllocs(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := NewMemBackend()
	chunk := make([]byte, 64<<10)
	for i := 0; i < 4; i++ {
		if _, err := b.Write("s", chunk); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if d, err := b.Read("s", 2*int64(len(chunk)), len(chunk)); err != nil || len(d) != len(chunk) {
			t.Fatalf("Read = %d bytes, %v", len(d), err)
		}
	})
	if got != 0 {
		t.Errorf("MemBackend.Read of a stored chunk: %v allocs, want 0", got)
	}
}
