package parquet

import (
	"encoding/binary"
	"math/bits"
)

// packable is every element type whose pages can be bit-packed: the
// integer-backed arrow types (dates, timestamps and decimals included)
// plus the uint32 dictionary indexes and int32 string lengths.
type packable interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// maxPackWidth is the widest packed value: a value at any bit offset then
// fits one unaligned 8-byte load. Wider ranges are stored plain.
const maxPackWidth = 56

// packWidth returns the bits needed for values in [0, span], or false
// when span is too wide to pack.
func packWidth(span uint64) (uint, bool) {
	w := uint(bits.Len64(span))
	return w, w <= maxPackWidth
}

// packedLen is the byte length of n values packed at width bits.
func packedLen(n int, width uint) int { return (n*int(width) + 7) / 8 }

// bitWriter appends values to a little-endian bit stream.
type bitWriter struct {
	dst  []byte
	acc  uint64
	fill uint
}

// put appends the low width bits of x, which must have no higher bits
// set; width is at most maxPackWidth.
func (w *bitWriter) put(x uint64, width uint) {
	w.acc |= x << w.fill
	w.fill += width
	if w.fill >= 64 {
		w.dst = binary.LittleEndian.AppendUint64(w.dst, w.acc)
		w.fill -= 64
		w.acc = x >> (width - w.fill)
	}
}

// finish pads the stream to a whole byte and returns it.
func (w *bitWriter) finish() []byte {
	for ; w.fill > 0; w.fill -= min(w.fill, 8) {
		w.dst = append(w.dst, byte(w.acc))
		w.acc >>= 8
	}
	return w.dst
}

// appendPacked appends vs, each stored as the low `width` bits of
// (value - base). Every value - base must fit.
func appendPacked[T packable](dst []byte, vs []T, base uint64, width uint) []byte {
	w := bitWriter{dst: dst}
	if width > 0 {
		for _, v := range vs {
			w.put(uint64(int64(v))-base, width)
		}
	}
	return w.finish()
}

// unpack fills dst with base + each packed value. src must hold at least
// packedLen(len(dst), width) bytes and width must not exceed maxPackWidth.
func unpack[T packable](dst []T, src []byte, base uint64, width uint) {
	if width == 0 {
		v := T(base)
		for i := range dst {
			dst[i] = v
		}
		return
	}
	mask := uint64(1)<<width - 1
	// One 8-byte load at any bit offset yields at least 57 usable bits:
	// `per` whole values, decoded without touching memory again.
	per := int(57 / width)
	step := uint(per) * width
	bit := uint(0)
	for len(dst) >= per && int(bit>>3)+8 <= len(src) {
		word := binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7)
		for j := range dst[:per] {
			dst[j] = T(word&mask + base)
			word >>= width
		}
		dst = dst[per:]
		bit += step
	}
	if len(dst) == 0 {
		return
	}
	// What is left starts within 8 bytes of here; finish from a
	// zero-padded copy so the loads stay in bounds.
	var tail [16]byte
	copy(tail[:], src[min(int(bit>>3), len(src)):])
	bit &= 7
	for i := range dst {
		dst[i] = T(binary.LittleEndian.Uint64(tail[bit>>3:])>>(bit&7)&mask + base)
		bit += width
	}
}
