package parquet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// bloomFilter is a classic Bloom filter over 64-bit value hashes with k
// probe positions derived by double hashing. It answers "definitely not
// present" / "maybe present" for equality predicates, letting the reader
// skip whole row groups.
type bloomFilter struct {
	bits []byte
	k    int
	// m is ceil(2^64 / nbits), set by newBloomFilter for insertHash's
	// fast modulo.
	m uint64
}

// maxBloomBytes caps a filter's bit array; the reader rejects a footer
// entry above it.
const maxBloomBytes = 256 * 1024

// newBloomFilter sizes a filter for the expected number of distinct values
// at roughly a 1% false positive rate (10 bits/value, 7 hashes), capped at
// maxBloomBytes.
func newBloomFilter(expected int64) *bloomFilter {
	bits := expected * 10
	if bits < 512 {
		bits = 512
	}
	const maxBits = maxBloomBytes * 8
	if bits > maxBits {
		bits = maxBits
	}
	b := &bloomFilter{bits: make([]byte, (bits+7)/8), k: 7}
	b.m = ^uint64(0)/b.nbits() + 1
	return b
}

func (b *bloomFilter) nbits() uint64 { return uint64(len(b.bits)) * 8 }

// insertHash sets the k probe bits of h: (h1 + i·h2) mod nbits, the
// positions mightContainHash tests. The modulo is Lemire's fastmod,
// exact for a 32-bit operand and a divisor below 2^32 (nbits <= 2^21).
func (b *bloomFilter) insertHash(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	n := b.nbits()
	for i := 0; i < b.k; i++ {
		pos, _ := bits.Mul64(b.m*uint64(h1+uint32(i)*h2), n)
		b.bits[pos>>3] |= 1 << (pos & 7)
	}
}

func (b *bloomFilter) mightContainHash(h uint64) bool {
	h1, h2 := uint32(h), uint32(h>>32)
	n := b.nbits()
	for i := 0; i < b.k; i++ {
		pos := uint64(h1+uint32(i)*h2) % n
		if b.bits[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

// hashScalarForBloom hashes a scalar consistently with insertArray.
func hashScalarForBloom(s arrow.Scalar) (uint64, bool) {
	if s.Null {
		return 0, false
	}
	switch s.Type.ID {
	case arrow.STRING:
		return compute.HashBytes([]byte(s.AsString())), true
	case arrow.BINARY:
		return compute.HashBytes(s.Val.([]byte)), true
	case arrow.BOOL:
		if s.AsBool() {
			return compute.HashBytes([]byte{1}), true
		}
		return compute.HashBytes([]byte{0}), true
	case arrow.FLOAT32, arrow.FLOAT64:
		var buf [8]byte
		f := s.AsFloat64()
		if f == 0 {
			f = 0
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(int64FromFloatBits(f)))
		return compute.HashBytes(buf[:]), true
	default:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(s.AsInt64()))
		return compute.HashBytes(buf[:]), true
	}
}

func int64FromFloatBits(f float64) int64 {
	// Consistent with hashScalarForBloom callers only; bit pattern identity.
	return int64(math.Float64bits(f))
}

// insertArray adds every valid value of a Bloom-eligible array, hashing
// the bytes hashScalarForBloom hashes for the same value straight from
// the array's buffers.
func (b *bloomFilter) insertArray(a arrow.Array) {
	switch arr := a.(type) {
	case *arrow.StringArray:
		for i := 0; i < arr.Len(); i++ {
			if arr.IsValid(i) {
				b.insertHash(compute.HashBytes(arr.ValueBytes(i)))
			}
		}
	case *arrow.Int8Array:
		insertInts(b, arr)
	case *arrow.Int16Array:
		insertInts(b, arr)
	case *arrow.Int32Array:
		insertInts(b, arr)
	case *arrow.Int64Array:
		insertInts(b, arr)
	case *arrow.Uint8Array:
		insertInts(b, arr)
	case *arrow.Uint16Array:
		insertInts(b, arr)
	case *arrow.Uint32Array:
		insertInts(b, arr)
	case *arrow.Uint64Array:
		insertInts(b, arr)
	default:
		panic(fmt.Sprintf("parquet: no Bloom filter for %s", a.DataType()))
	}
}

// insertInts adds each valid value as its 64-bit two's-complement word,
// what hashScalarForBloom hashes for an integer-backed scalar.
func insertInts[T packable](b *bloomFilter, a *arrow.NumericArray[T]) {
	vals := a.Values()
	if a.NullCount() == 0 {
		for _, v := range vals {
			b.insertHash(compute.HashUint64(uint64(int64(v))))
		}
		return
	}
	for i, v := range vals {
		if a.IsValid(i) {
			b.insertHash(compute.HashUint64(uint64(int64(v))))
		}
	}
}

// MightContain reports whether the value may be present.
func (b *bloomFilter) MightContain(s arrow.Scalar) bool {
	h, ok := hashScalarForBloom(s)
	if !ok {
		return true
	}
	return b.mightContainHash(h)
}
