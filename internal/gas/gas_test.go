package gas

import (
	"testing"
	"testing/quick"

	"chaos/internal/raceflag"
)

func TestUint32CodecRoundTrip(t *testing.T) {
	c := Uint32Codec()
	prop := func(v uint32) bool {
		buf := make([]byte, c.Bytes)
		c.Put(buf, &v)
		var got uint32
		c.Get(buf, &got)
		return got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32CodecRoundTrip(t *testing.T) {
	c := Float32Codec()
	for _, v := range []float32{0, 1.5, -3.25, 1e30, -1e-30} {
		buf := make([]byte, c.Bytes)
		c.Put(buf, &v)
		var got float32
		c.Get(buf, &got)
		if got != v {
			t.Errorf("round trip %g -> %g", v, got)
		}
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	c := Uint32Codec()
	in := []uint32{1, 2, 3, 4, 5}
	buf := c.EncodeSlice(in)
	if len(buf) != 20 {
		t.Fatalf("buffer %d bytes, want 20", len(buf))
	}
	got := make([]uint32, len(in))
	if n := c.DecodeSliceInto(got, buf); n != len(in) {
		t.Fatalf("decoded %d records, want %d", n, len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("slice round trip: got %v", got)
		}
	}
}

// The bulk codecs are what vertex chunks cross every phase: one buffer
// per encoded chunk, nothing per record in either direction.
func TestCodecAllocs(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := Uint32Codec()
	vs := make([]uint32, 1024)
	var buf []byte
	if got := testing.AllocsPerRun(10, func() { buf = c.EncodeSlice(vs) }); got > 1 {
		t.Errorf("EncodeSlice: %v allocs per chunk, want at most 1", got)
	}
	if got := testing.AllocsPerRun(10, func() { c.DecodeSliceInto(vs, buf) }); got != 0 {
		t.Errorf("DecodeSliceInto: %v allocs per chunk, want 0", got)
	}
}
