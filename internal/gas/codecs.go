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
		PutRecs: func(buf []byte, idBytes int, recs []UpdRec[uint32]) {
			if idBytes == 4 {
				for i, r := range recs {
					binary.LittleEndian.PutUint64(buf[8*i:], uint64(r.Off)|uint64(r.Val)<<32)
				}
				return
			}
			for i, r := range recs {
				binary.LittleEndian.PutUint64(buf[12*i:], uint64(r.Off))
				binary.LittleEndian.PutUint32(buf[12*i+8:], r.Val)
			}
		},
		GetRecs: func(recs []UpdRec[uint32], idBytes int, buf []byte) {
			if idBytes == 4 {
				for i := range recs {
					w := binary.LittleEndian.Uint64(buf[8*i:])
					recs[i] = UpdRec[uint32]{Off: uint32(w), Val: uint32(w >> 32)}
				}
				return
			}
			for i := range recs {
				recs[i] = UpdRec[uint32]{
					Off: uint32(binary.LittleEndian.Uint64(buf[12*i:])),
					Val: binary.LittleEndian.Uint32(buf[12*i+8:]),
				}
			}
		},
	}
}

// Uint64Codec serializes a uint64 in 8 bytes.
func Uint64Codec() Codec[uint64] {
	return Codec[uint64]{
		Bytes: 8,
		Put:   func(b []byte, v *uint64) { binary.LittleEndian.PutUint64(b, *v) },
		Get:   func(b []byte, v *uint64) { *v = binary.LittleEndian.Uint64(b) },
	}
}

// Float32Codec serializes a float32 in 4 bytes.
func Float32Codec() Codec[float32] {
	return Codec[float32]{
		Bytes: 4,
		Put:   func(b []byte, v *float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(*v)) },
		Get:   func(b []byte, v *float32) { *v = math.Float32frombits(binary.LittleEndian.Uint32(b)) },
		PutRecs: func(buf []byte, idBytes int, recs []UpdRec[float32]) {
			if idBytes == 4 {
				for i, r := range recs {
					binary.LittleEndian.PutUint64(buf[8*i:], uint64(r.Off)|uint64(math.Float32bits(r.Val))<<32)
				}
				return
			}
			for i, r := range recs {
				binary.LittleEndian.PutUint64(buf[12*i:], uint64(r.Off))
				binary.LittleEndian.PutUint32(buf[12*i+8:], math.Float32bits(r.Val))
			}
		},
		GetRecs: func(recs []UpdRec[float32], idBytes int, buf []byte) {
			if idBytes == 4 {
				for i := range recs {
					w := binary.LittleEndian.Uint64(buf[8*i:])
					recs[i] = UpdRec[float32]{Off: uint32(w), Val: math.Float32frombits(uint32(w >> 32))}
				}
				return
			}
			for i := range recs {
				recs[i] = UpdRec[float32]{
					Off: uint32(binary.LittleEndian.Uint64(buf[12*i:])),
					Val: math.Float32frombits(binary.LittleEndian.Uint32(buf[12*i+8:])),
				}
			}
		},
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
