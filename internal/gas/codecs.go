package gas

import (
	"encoding/binary"
	"math"
)

// Uint32Codec serializes a uint32 in 4 bytes.
func Uint32Codec() Codec[uint32] {
	return Codec[uint32]{
		Bytes: 4,
		Put:   func(b []byte, v *uint32) { binary.LittleEndian.PutUint32(b, *v) },
		Get:   func(b []byte, v *uint32) { *v = binary.LittleEndian.Uint32(b) },
	}
}

// Float32Codec serializes a float32 in 4 bytes.
func Float32Codec() Codec[float32] {
	return Codec[float32]{
		Bytes: 4,
		Put:   func(b []byte, v *float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(*v)) },
		Get:   func(b []byte, v *float32) { *v = math.Float32frombits(binary.LittleEndian.Uint32(b)) },
	}
}

// DecodeSliceInto decodes buf (a whole number of records) into dst, which
// must have room for len(buf)/Bytes records, and returns that count. It is
// the bulk counterpart of record-at-a-time Get calls for callers that own
// a reusable destination (vertex arrays, pooled update-record slices).
func (c Codec[T]) DecodeSliceInto(dst []T, buf []byte) int {
	n := len(buf) / c.Bytes
	for i := 0; i < n; i++ {
		c.Get(buf[i*c.Bytes:], &dst[i])
	}
	return n
}
