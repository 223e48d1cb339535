package compute

import (
	"fmt"

	"gofusion/internal/arrow"
)

// byteAt returns byte i of a bitmap, treating nil as all-ones.
func byteAt(b arrow.Bitmap, i int) byte {
	if b == nil {
		return 0xFF
	}
	return b[i]
}

// And evaluates a AND b with SQL three-valued logic, into buf (nil
// allocates): FALSE if either side is FALSE, NULL if undetermined, TRUE
// otherwise.
func And(a, b *arrow.BoolArray, buf *Buf) (*arrow.BoolArray, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("compute: AND length mismatch %d vs %d", a.Len(), b.Len())
	}
	n := a.Len()
	nb := (n + 7) / 8
	vals := boolBits(buf, n)
	xa, xb := a.ValuesBitmap(), b.ValuesBitmap()
	va, vb := a.Validity(), b.Validity()
	allValid := va == nil && vb == nil
	var valid arrow.Bitmap
	if !allValid {
		valid = validBits(buf, n)
	}
	for i := 0; i < nb; i++ {
		xav, xbv := byteAt(xa, i), byteAt(xb, i)
		vals[i] = xav & xbv
		if !allValid {
			vav, vbv := byteAt(va, i), byteAt(vb, i)
			// Valid when: both valid, or a is a valid FALSE, or b is a valid FALSE.
			valid[i] = (vav & vbv) | (vav &^ xav) | (vbv &^ xbv)
			// A valid-false operand forces the value to FALSE even when the
			// other side's don't-care bit was set.
			vals[i] &= valid[i]
		}
	}
	return arrow.NewBool(vals, valid, n), nil
}

// Or evaluates a OR b with SQL three-valued logic, into buf (nil
// allocates).
func Or(a, b *arrow.BoolArray, buf *Buf) (*arrow.BoolArray, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("compute: OR length mismatch %d vs %d", a.Len(), b.Len())
	}
	n := a.Len()
	nb := (n + 7) / 8
	vals := boolBits(buf, n)
	xa, xb := a.ValuesBitmap(), b.ValuesBitmap()
	va, vb := a.Validity(), b.Validity()
	allValid := va == nil && vb == nil
	var valid arrow.Bitmap
	if !allValid {
		valid = validBits(buf, n)
	}
	for i := 0; i < nb; i++ {
		xav, xbv := byteAt(xa, i), byteAt(xb, i)
		vav, vbv := byteAt(va, i), byteAt(vb, i)
		// Mask away don't-care value bits of invalid slots before OR-ing.
		vals[i] = (xav & vav) | (xbv & vbv)
		if !allValid {
			// Valid when: both valid, or a is a valid TRUE, or b is a valid TRUE.
			valid[i] = (vav & vbv) | (vav & xav) | (vbv & xbv)
		}
	}
	return arrow.NewBool(vals, valid, n), nil
}

// Not evaluates NOT a, into buf (nil allocates); NULL stays NULL.
func Not(a *arrow.BoolArray, buf *Buf) *arrow.BoolArray {
	n := a.Len()
	nb := (n + 7) / 8
	vals := boolBits(buf, n)
	xa := a.ValuesBitmap()
	for i := 0; i < nb; i++ {
		vals[i] = ^byteAt(xa, i)
	}
	if rem := n % 8; rem != 0 {
		vals[nb-1] &= byte(1<<rem) - 1
	}
	return arrow.NewBool(vals, copyValidity(buf, a.Validity(), n), n)
}

// IsNullMask returns a non-null boolean array that is true where a is null.
func IsNullMask(a arrow.Array) *arrow.BoolArray {
	n := a.Len()
	vals := arrow.NewBitmap(n)
	if v := a.Validity(); v != nil {
		for q := range vals {
			vals[q] = ^v[q]
		}
		clearTail(vals, n)
	} else if a.DataType().ID == arrow.NULL {
		vals.SetRange(0, n)
	}
	return arrow.NewBool(vals, nil, n)
}

// IsNotNullMask returns a non-null boolean array that is true where a is
// valid.
func IsNotNullMask(a arrow.Array) *arrow.BoolArray {
	return Not(IsNullMask(a), nil)
}

// CoalesceBoolToFalse converts NULL slots to valid FALSE, implementing the
// final step of WHERE evaluation where NULL predicates reject rows.
func CoalesceBoolToFalse(a *arrow.BoolArray) *arrow.BoolArray {
	if a.NullCount() == 0 {
		return a
	}
	n := a.Len()
	nb := (n + 7) / 8
	vals := arrow.NewBitmap(n)
	xa, va := a.ValuesBitmap(), a.Validity()
	for i := 0; i < nb; i++ {
		vals[i] = byteAt(xa, i) & byteAt(va, i)
	}
	return arrow.NewBool(vals, nil, n)
}
