package compute

import (
	"encoding/binary"
	"math"
	"math/bits"

	"gofusion/internal/arrow"
)

// Vectorized row hashing, used by hash joins, hash aggregation and hash
// repartitioning. Hashes are 64-bit; multi-column hashes are combined with
// a multiply-rotate mix so column order matters.

const (
	hashSeed  uint64 = 0x9E3779B97F4A7C15
	hashNull  uint64 = 0xA0761D6478BD642F
	mixConst1 uint64 = 0xFF51AFD7ED558CCD
	mixConst2 uint64 = 0xC4CEB9FE1A85EC53
)

// mix64 is the finalizer from SplitMix64 / MurmurHash3, a cheap full-avalanche
// 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= mixConst1
	x ^= x >> 33
	x *= mixConst2
	x ^= x >> 33
	return x
}

// combine folds a column hash into an accumulated row hash.
func combine(acc, h uint64) uint64 {
	return bits.RotateLeft64(acc, 31) ^ mix64(h)
}

// HashBytes hashes a byte string eight bytes at a time, folding each word
// through the full-avalanche mixer. The length is seeded up front so
// prefixes sharing trailing zero bytes still hash apart.
func HashBytes(b []byte) uint64 {
	h := hashSeed ^ uint64(len(b))
	for len(b) >= 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * i)
		}
		h = mix64(h ^ tail)
	}
	return mix64(h)
}

// HashUint64 is HashBytes of v's eight little-endian bytes.
func HashUint64(v uint64) uint64 {
	return mix64(mix64(hashSeed ^ 8 ^ v))
}

func hashNumericInto[T arrow.Number](a *arrow.NumericArray[T], hashes []uint64, first bool) {
	vals := a.Values()
	if first {
		if a.NullCount() == 0 {
			for i, v := range vals {
				hashes[i] = mix64(uint64(int64(v)) + hashSeed)
			}
			return
		}
		for i, v := range vals {
			if a.IsNull(i) {
				hashes[i] = hashNull
			} else {
				hashes[i] = mix64(uint64(int64(v)) + hashSeed)
			}
		}
		return
	}
	if a.NullCount() == 0 {
		for i, v := range vals {
			hashes[i] = combine(hashes[i], uint64(int64(v))+hashSeed)
		}
		return
	}
	for i, v := range vals {
		if a.IsNull(i) {
			hashes[i] = combine(hashes[i], hashNull)
		} else {
			hashes[i] = combine(hashes[i], uint64(int64(v))+hashSeed)
		}
	}
}

func hashFloatInto[T ~float32 | ~float64](a *arrow.NumericArray[T], hashes []uint64, first bool) {
	vals := a.Values()
	for i, v := range vals {
		var h uint64
		if a.IsNull(i) {
			h = hashNull
		} else {
			h = mix64(floatKeyBits(float64(v)) + hashSeed)
		}
		if first {
			hashes[i] = h
		} else {
			hashes[i] = combine(hashes[i], h)
		}
	}
}

// floatKeyBits is the bit pattern a float hashes as: -0.0 as +0.0 and
// every NaN as one NaN, the identity GROUP BY, DISTINCT and join keys give
// floats.
func floatKeyBits(f float64) uint64 {
	switch {
	case f != f:
		return 0x7FF8000000000000
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}

// HashArrayInto hashes each slot of a into hashes; when first is true the
// slot hash overwrites, otherwise it is combined with the existing value.
func HashArrayInto(a arrow.Array, hashes []uint64, first bool) {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Int16Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Int32Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Int64Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Uint8Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Uint16Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Uint32Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Uint64Array:
		hashNumericInto(arr, hashes, first)
	case *arrow.Float32Array:
		hashFloatInto(arr, hashes, first)
	case *arrow.Float64Array:
		hashFloatInto(arr, hashes, first)
	case *arrow.StringArray:
		for i := 0; i < arr.Len(); i++ {
			var h uint64
			if arr.IsNull(i) {
				h = hashNull
			} else {
				h = HashBytes(arr.ValueBytes(i))
			}
			if first {
				hashes[i] = h
			} else {
				hashes[i] = combine(hashes[i], h)
			}
		}
	case *arrow.BoolArray:
		for i := 0; i < arr.Len(); i++ {
			var h uint64
			switch {
			case arr.IsNull(i):
				h = hashNull
			case arr.Value(i):
				h = mix64(1 + hashSeed)
			default:
				h = mix64(hashSeed)
			}
			if first {
				hashes[i] = h
			} else {
				hashes[i] = combine(hashes[i], h)
			}
		}
	case *arrow.NullArray:
		for i := range hashes {
			if first {
				hashes[i] = hashNull
			} else {
				hashes[i] = combine(hashes[i], hashNull)
			}
		}
	default:
		// Slow path via boxed scalars for nested types.
		for i := 0; i < a.Len(); i++ {
			var h uint64
			if a.IsNull(i) {
				h = hashNull
			} else {
				h = HashBytes([]byte(a.GetScalar(i).String()))
			}
			if first {
				hashes[i] = h
			} else {
				hashes[i] = combine(hashes[i], h)
			}
		}
	}
}

// HashBatch computes one 64-bit hash per row across the given columns,
// reusing buf's storage when it has capacity. This is the shared hashing
// discipline for hash aggregation, hash joins and hash repartitioning:
// one call per input batch, zero steady-state allocations.
func HashBatch(cols []arrow.Array, numRows int, buf []uint64) []uint64 {
	if cap(buf) < numRows {
		buf = make([]uint64, numRows)
	} else {
		buf = buf[:numRows]
	}
	if len(cols) == 0 {
		for i := range buf {
			buf[i] = hashSeed
		}
		return buf
	}
	for ci, c := range cols {
		HashArrayInto(c, buf, ci == 0)
	}
	return buf
}

// HashColumns computes one 64-bit hash per row across the given columns.
func HashColumns(cols []arrow.Array, numRows int) []uint64 {
	return HashBatch(cols, numRows, nil)
}
