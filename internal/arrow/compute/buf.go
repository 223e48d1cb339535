package compute

import "gofusion/internal/arrow"

// Buf is one expression node's reusable result storage. A kernel given a
// Buf writes its result into the Buf's value and validity buffers, reusing
// their backing arrays from the previous call when they are large enough,
// so the array it returns is valid only until the next call with the same
// Buf. A nil Buf allocates every result.
type Buf struct {
	vals   any          // *[]T: the values of the last numeric result
	poison func()       // fills vals' whole backing array with poisonByte
	bits   arrow.Bitmap // the values of the last boolean result
	valid  arrow.Bitmap // the validity of the last result
}

// poisonByte is the pattern Poison writes: 0x5A in every byte of a bitmap
// and in every slot of a value buffer.
const poisonByte = 0x5A

// Poison overwrites everything b holds with a fixed pattern, so a result
// kept past its lifetime reads garbage rather than plausible values. The
// sanitize build calls it before every reuse.
func (b *Buf) Poison() {
	if b.poison != nil {
		b.poison()
	}
	poisonBits(b.bits)
	poisonBits(b.valid)
}

func poisonBits(bm arrow.Bitmap) {
	bm = bm[:cap(bm)]
	for i := range bm {
		bm[i] = poisonByte
	}
}

// values returns n value slots, taken from b when it is non-nil. Their
// contents are unspecified: kernels write every slot.
func values[T arrow.Number](b *Buf, n int) []T {
	if b == nil {
		return make([]T, n)
	}
	p, ok := b.vals.(*[]T)
	if !ok {
		p = new([]T)
		b.vals = p
		b.poison = func() {
			s := (*p)[:cap(*p)]
			for i := range s {
				s[i] = poisonByte
			}
		}
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

// boolBits returns a cleared n-bit value bitmap, taken from b when it is
// non-nil.
func boolBits(b *Buf, n int) arrow.Bitmap {
	if b == nil {
		return arrow.NewBitmap(n)
	}
	return cleared(&b.bits, n)
}

// validBits returns a cleared n-bit validity bitmap, taken from b when it
// is non-nil.
func validBits(b *Buf, n int) arrow.Bitmap {
	if b == nil {
		return arrow.NewBitmap(n)
	}
	return cleared(&b.valid, n)
}

func cleared(dst *arrow.Bitmap, n int) arrow.Bitmap {
	nb := (n + 7) / 8
	if cap(*dst) < nb {
		*dst = make(arrow.Bitmap, nb)
	}
	out := (*dst)[:nb]
	clear(out)
	return out
}

// copyValidity returns a copy of an n-slot validity bitmap (nil stays
// nil), taken from b when it is non-nil.
func copyValidity(b *Buf, src arrow.Bitmap, n int) arrow.Bitmap {
	if src == nil {
		return nil
	}
	if b == nil {
		return src.Clone()
	}
	out := cleared(&b.valid, n)
	copy(out, src)
	return out
}

// andValidity is the validity of a binary result: valid where both
// operands are, nil when both are all-valid.
func andValidity(a, b arrow.Array, buf *Buf) arrow.Bitmap {
	av, bv := a.Validity(), b.Validity()
	if av == nil && bv == nil {
		return nil
	}
	out := validBits(buf, a.Len())
	out.And(av, bv, a.Len())
	return out
}

// nulls is the result of an operation with a Null-typed operand: n NULLs
// of the result type t.
func nulls(t *arrow.DataType, n int) arrow.Array {
	return arrow.ScalarToArray(arrow.NullScalar(t), n)
}
