package arrow

import (
	"encoding/binary"
	"math/bits"
)

// Bitmap is a little-endian bit-packed boolean buffer, used for validity
// (null) tracking exactly as in the Arrow format: bit i set means slot i is
// valid (non-null). A nil Bitmap means "all valid".
type Bitmap []byte

// NewBitmap allocates a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap {
	return make(Bitmap, (n+7)/8)
}

// NewBitmapSet allocates a bitmap with capacity for n bits, all set.
func NewBitmapSet(n int) Bitmap {
	b := NewBitmap(n)
	b.SetRange(0, n) // leaves trailing bits clear, so CountSet is exact
	return b
}

// Get reports whether bit i is set. A nil bitmap reports true for all i.
func (b Bitmap) Get(i int) bool {
	if b == nil {
		return true
	}
	return b[i>>3]&(1<<(i&7)) != 0
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>3] |= 1 << (i & 7) }

// SetRange sets bits [from, to), whole bytes eight at a time.
func (b Bitmap) SetRange(from, to int) {
	if from >= to {
		return
	}
	first, last := from>>3, (to-1)>>3
	head := byte(0xFF) << (from & 7)
	tail := byte(0xFF) >> (7 - (to-1)&7)
	if first == last {
		b[first] |= head & tail
		return
	}
	b[first] |= head
	b[last] |= tail
	mid := b[first+1 : last]
	for ; len(mid) >= 8; mid = mid[8:] {
		binary.LittleEndian.PutUint64(mid, ^uint64(0))
	}
	for i := range mid {
		mid[i] = 0xFF
	}
}

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>3] &^= 1 << (i & 7) }

// Put sets bit i to v.
func (b Bitmap) Put(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// CopyBits copies n bits of src starting at bit srcOff into b starting at
// bit dstOff, leaving b's other bits as they were. A nil src copies set
// bits. Byte-aligned offsets copy whole bytes; others move 56 bits per
// shifted word.
func (b Bitmap) CopyBits(dstOff int, src Bitmap, srcOff, n int) {
	if n <= 0 {
		return
	}
	if src == nil {
		b.SetRange(dstOff, dstOff+n)
		return
	}
	if dstOff%8 == 0 && srcOff%8 == 0 {
		full := copy(b[dstOff/8:dstOff/8+n/8], src[srcOff/8:]) * 8
		dstOff, srcOff, n = dstOff+full, srcOff+full, n-full
	}
	for n > 0 {
		k := min(n, 56)
		m := uint64(1)<<k - 1
		w := src.Word(srcOff) & m
		s := dstOff & 7
		m, w = m<<s, w<<s
		for q := dstOff >> 3; m != 0; q++ {
			b[q] = b[q]&^byte(m) | byte(w)
			m, w = m>>8, w>>8
		}
		dstOff, srcOff, n = dstOff+k, srcOff+k, n-k
	}
}

// Word returns the bits of b from bit p on in the low bits of a word: all
// 64 when p is a multiple of 8, else at least 57. Bits past the end of b
// read as clear; a nil bitmap reads as all set.
func (b Bitmap) Word(p int) uint64 {
	if b == nil {
		return ^uint64(0)
	}
	q := p >> 3
	var w uint64
	if q+8 <= len(b) {
		w = binary.LittleEndian.Uint64(b[q:])
	} else {
		for i := len(b) - 1; i >= q; i-- {
			w = w<<8 | uint64(b[i])
		}
	}
	return w >> (p & 7)
}

// CountSet returns the number of set bits among the first n bits.
func (b Bitmap) CountSet(n int) int {
	if b == nil {
		return n
	}
	full := n / 8
	c := 0
	words := b[:full]
	for ; len(words) >= 8; words = words[8:] {
		c += bits.OnesCount64(binary.LittleEndian.Uint64(words))
	}
	for _, w := range words {
		c += bits.OnesCount8(w)
	}
	if rem := n % 8; rem != 0 {
		c += bits.OnesCount8(b[full] & (byte(1<<rem) - 1))
	}
	return c
}

// And stores x AND y into b for n bits. Any nil operand is treated as
// all-ones. b must have capacity for n bits.
func (b Bitmap) And(x, y Bitmap, n int) {
	nb := (n + 7) / 8
	switch {
	case x == nil && y == nil:
		for i := 0; i < nb; i++ {
			b[i] = 0xFF
		}
	case x == nil:
		copy(b[:nb], y[:nb])
	case y == nil:
		copy(b[:nb], x[:nb])
	default:
		for i := 0; i < nb; i++ {
			b[i] = x[i] & y[i]
		}
	}
}

// Clone returns a copy of the bitmap, preserving nil.
func (b Bitmap) Clone() Bitmap {
	if b == nil {
		return nil
	}
	c := make(Bitmap, len(b))
	copy(c, b)
	return c
}

// andValidity merges two validity bitmaps over n slots, returning nil when
// the result would be all-valid.
func andValidity(x, y Bitmap, n int) Bitmap {
	if x == nil && y == nil {
		return nil
	}
	out := NewBitmap(n)
	out.And(x, y, n)
	return out
}
