package compute

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gofusion/internal/arrow"
)

// CmpOp identifies a comparison operator.
type CmpOp int

// Comparison operators with SQL semantics (NULL operands produce NULL).
const (
	Eq CmpOp = iota
	Neq
	Lt
	LtEq
	Gt
	GtEq
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (op CmpOp) String() string { return cmpNames[op] }

// Negate returns the logically negated operator (e.g. Lt -> GtEq).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Eq:
		return Neq
	case Neq:
		return Eq
	case Lt:
		return GtEq
	case LtEq:
		return Gt
	case Gt:
		return LtEq
	default:
		return Lt
	}
}

// Flip returns the operator with sides swapped (e.g. a < b  ==  b > a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case Lt:
		return Gt
	case LtEq:
		return GtEq
	case Gt:
		return Lt
	case GtEq:
		return LtEq
	default:
		return op
	}
}

type orderedNum interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// cmpVecVec stores a[i] op b[i] into out, 64 results to a word.
func cmpVecVec[T orderedNum](op CmpOp, a, b []T, out arrow.Bitmap) {
	for i := 0; i < len(a); i += 64 {
		x := a[i:min(i+64, len(a))]
		y := b[i:][:len(x)]
		var w uint64
		switch op {
		case Eq, Neq:
			for j := range x {
				w |= b2u(x[j] == y[j]) << (j & 63)
			}
		case Lt:
			for j := range x {
				w |= b2u(x[j] < y[j]) << (j & 63)
			}
		case LtEq:
			for j := range x {
				w |= b2u(x[j] <= y[j]) << (j & 63)
			}
		case Gt:
			for j := range x {
				w |= b2u(x[j] > y[j]) << (j & 63)
			}
		case GtEq:
			for j := range x {
				w |= b2u(x[j] >= y[j]) << (j & 63)
			}
		}
		if op == Neq {
			w = ^w
		}
		storeBits(out, i, len(x), w)
	}
}

// cmpVecScalar stores a[i] op s into out, 64 results to a word.
func cmpVecScalar[T orderedNum](op CmpOp, a []T, s T, out arrow.Bitmap) {
	for i := 0; i < len(a); i += 64 {
		x := a[i:min(i+64, len(a))]
		var w uint64
		switch op {
		case Eq, Neq:
			for j, v := range x {
				w |= b2u(v == s) << (j & 63)
			}
		case Lt:
			for j, v := range x {
				w |= b2u(v < s) << (j & 63)
			}
		case LtEq:
			for j, v := range x {
				w |= b2u(v <= s) << (j & 63)
			}
		case Gt:
			for j, v := range x {
				w |= b2u(v > s) << (j & 63)
			}
		case GtEq:
			for j, v := range x {
				w |= b2u(v >= s) << (j & 63)
			}
		}
		if op == Neq {
			w = ^w
		}
		storeBits(out, i, len(x), w)
	}
}

// cmpStrScalar stores x[i] op s into out, 64 results to a word.
// Equality compares length and first eight bytes before the rest.
func cmpStrScalar(op CmpOp, x *arrow.StringArray, s string, out arrow.Bitmap) {
	off, data, sb, it := x.Offsets(), x.Data(), []byte(s), newStrItem(s)
	n := x.Len()
	for i := 0; i < n; i += 64 {
		m := min(64, n-i)
		var w uint64
		if op == Eq || op == Neq {
			for j := 0; j < m; j++ {
				lo, hi := off[i+j], off[i+j+1]
				w |= it.eq(headAt(data, lo, hi), data, lo, hi) << j
			}
		} else {
			for j := 0; j < m; j++ {
				w |= b2u(holds(op, bytes.Compare(data[off[i+j]:off[i+j+1]], sb))) << j
			}
		}
		if op == Neq {
			w = ^w
		}
		storeBits(out, i, m, w)
	}
}

// cmpStrVec stores x[i] op y[i] into out, 64 results to a word.
func cmpStrVec(op CmpOp, x, y *arrow.StringArray, out arrow.Bitmap) {
	xo, xd, yo, yd := x.Offsets(), x.Data(), y.Offsets(), y.Data()
	n := x.Len()
	for i := 0; i < n; i += 64 {
		m := min(64, n-i)
		var w uint64
		for j := 0; j < m; j++ {
			a, b := xd[xo[i+j]:xo[i+j+1]], yd[yo[i+j]:yo[i+j+1]]
			if op == Eq || op == Neq {
				w |= b2u(bytes.Equal(a, b)) << j
			} else {
				w |= b2u(holds(op, bytes.Compare(a, b))) << j
			}
		}
		if op == Neq {
			w = ^w
		}
		storeBits(out, i, m, w)
	}
}

// cmpBits stores x op y over bit-packed booleans into out for n bits, a
// byte at a time (FALSE < TRUE).
func cmpBits(op CmpOp, x, y arrow.Bitmap, n int, out arrow.Bitmap) {
	for q := range out[:(n+7)/8] {
		a, b := x[q], y[q]
		switch op {
		case Eq:
			out[q] = ^(a ^ b)
		case Neq:
			out[q] = a ^ b
		case Lt:
			out[q] = ^a & b
		case LtEq:
			out[q] = ^a | b
		case Gt:
			out[q] = a &^ b
		default:
			out[q] = a | ^b
		}
	}
	clearTail(out, n)
}

// b2u is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// storeBits writes the m results held in the low bits of w to rows
// [i, i+m) of out, where i is a multiple of 64: one word store for a full
// word, else whole bytes with the bits past m cleared.
func storeBits(out arrow.Bitmap, i, m int, w uint64) {
	if m == 64 {
		binary.LittleEndian.PutUint64(out[i>>3:], w)
		return
	}
	w &= 1<<m - 1
	for q := i >> 3; m > 0; q, m = q+1, m-8 {
		out[q] = byte(w)
		w >>= 8
	}
}

// clearTail clears the bits of b's last byte past bit n.
func clearTail(b arrow.Bitmap, n int) {
	if r := n % 8; r != 0 {
		b[n/8] &= byte(1)<<r - 1
	}
}

func holds(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Neq:
		return c != 0
	case Lt:
		return c < 0
	case LtEq:
		return c <= 0
	case Gt:
		return c > 0
	default:
		return c >= 0
	}
}

func numArrays[T arrow.Number](a, b arrow.Array) (*arrow.NumericArray[T], *arrow.NumericArray[T]) {
	return a.(*arrow.NumericArray[T]), b.(*arrow.NumericArray[T])
}

// Compare evaluates `a op b` element-wise into buf (nil allocates). Both
// arrays must have the same length and compatible physical types (the
// planner coerces logical types).
func Compare(op CmpOp, a, b arrow.Array, buf *Buf) (*arrow.BoolArray, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("compute: compare length mismatch %d vs %d", a.Len(), b.Len())
	}
	n := a.Len()
	ta, tb := a.DataType(), b.DataType()
	if ta.ID == arrow.NULL || tb.ID == arrow.NULL {
		return allNullBools(n), nil
	}
	if physicalKind(ta) != physicalKind(tb) {
		return nil, fmt.Errorf("compute: cannot compare %s with %s", ta, tb)
	}
	valid := andValidity(a, b, buf)
	vals := boolBits(buf, n)
	switch physicalKind(ta) {
	case kindI8:
		x, y := numArrays[int8](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindI16:
		x, y := numArrays[int16](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindI32:
		x, y := numArrays[int32](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindI64:
		x, y := numArrays[int64](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindU8:
		x, y := numArrays[uint8](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindU16:
		x, y := numArrays[uint16](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindU32:
		x, y := numArrays[uint32](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindU64:
		x, y := numArrays[uint64](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindF32:
		x, y := numArrays[float32](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindF64:
		x, y := numArrays[float64](a, b)
		cmpVecVec(op, x.Values(), y.Values(), vals)
	case kindStr:
		cmpStrVec(op, a.(*arrow.StringArray), b.(*arrow.StringArray), vals)
	case kindBool:
		cmpBits(op, a.(*arrow.BoolArray).ValuesBitmap(), b.(*arrow.BoolArray).ValuesBitmap(), n, vals)
	default:
		return nil, fmt.Errorf("compute: comparison unsupported for %s", ta)
	}
	return arrow.NewBool(vals, valid, n), nil
}

// CompareScalar evaluates `a op s` element-wise with a broadcast scalar,
// into buf (nil allocates).
func CompareScalar(op CmpOp, a arrow.Array, s arrow.Scalar, buf *Buf) (*arrow.BoolArray, error) {
	n := a.Len()
	if s.Null || a.DataType().ID == arrow.NULL {
		return allNullBools(n), nil
	}
	valid := copyValidity(buf, a.Validity(), n)
	vals := boolBits(buf, n)
	switch physicalKind(a.DataType()) {
	case kindI8:
		cmpVecScalar(op, a.(*arrow.Int8Array).Values(), int8(s.AsInt64()), vals)
	case kindI16:
		cmpVecScalar(op, a.(*arrow.Int16Array).Values(), int16(s.AsInt64()), vals)
	case kindI32:
		cmpVecScalar(op, a.(*arrow.Int32Array).Values(), int32(s.AsInt64()), vals)
	case kindI64:
		cmpVecScalar(op, a.(*arrow.Int64Array).Values(), s.AsInt64(), vals)
	case kindU8:
		cmpVecScalar(op, a.(*arrow.Uint8Array).Values(), uint8(s.AsInt64()), vals)
	case kindU16:
		cmpVecScalar(op, a.(*arrow.Uint16Array).Values(), uint16(s.AsInt64()), vals)
	case kindU32:
		cmpVecScalar(op, a.(*arrow.Uint32Array).Values(), uint32(s.AsInt64()), vals)
	case kindU64:
		cmpVecScalar(op, a.(*arrow.Uint64Array).Values(), uint64(s.AsInt64()), vals)
	case kindF32:
		cmpVecScalar(op, a.(*arrow.Float32Array).Values(), float32(s.AsFloat64()), vals)
	case kindF64:
		cmpVecScalar(op, a.(*arrow.Float64Array).Values(), s.AsFloat64(), vals)
	case kindStr:
		cmpStrScalar(op, a.(*arrow.StringArray), s.AsString(), vals)
	case kindBool:
		sv := arrow.NewBitmap(n)
		if s.AsBool() {
			sv.SetRange(0, n)
		}
		cmpBits(op, a.(*arrow.BoolArray).ValuesBitmap(), sv, n, vals)
	default:
		return nil, fmt.Errorf("compute: scalar comparison unsupported for %s", a.DataType())
	}
	return arrow.NewBool(vals, valid, n), nil
}

func allNullBools(n int) *arrow.BoolArray {
	return arrow.NewBool(arrow.NewBitmap(n), arrow.NewBitmap(n), n)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

type physKind int

const (
	kindOther physKind = iota
	kindBool
	kindI8
	kindI16
	kindI32
	kindI64
	kindU8
	kindU16
	kindU32
	kindU64
	kindF32
	kindF64
	kindStr
)

// physicalKind maps logical types onto their physical representation so
// kernels can share code (Int64 / Timestamp / Decimal are all kindI64).
func physicalKind(t *arrow.DataType) physKind {
	switch t.ID {
	case arrow.BOOL:
		return kindBool
	case arrow.INT8:
		return kindI8
	case arrow.INT16:
		return kindI16
	case arrow.INT32, arrow.DATE32:
		return kindI32
	case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
		return kindI64
	case arrow.UINT8:
		return kindU8
	case arrow.UINT16:
		return kindU16
	case arrow.UINT32:
		return kindU32
	case arrow.UINT64:
		return kindU64
	case arrow.FLOAT32:
		return kindF32
	case arrow.FLOAT64:
		return kindF64
	case arrow.STRING, arrow.BINARY:
		return kindStr
	}
	return kindOther
}

// CompareScalars compares two scalars of the same physical kind, returning
// -1, 0, or 1. Null ordering is not handled here; callers must check first.
func CompareScalars(a, b arrow.Scalar) int {
	switch physicalKind(a.Type) {
	case kindBool:
		return b2i(a.AsBool()) - b2i(b.AsBool())
	case kindF32, kindF64:
		x, y := a.AsFloat64(), b.AsFloat64()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case kindStr:
		x, y := a.AsString(), b.AsString()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case kindU64:
		x, y := uint64(a.AsInt64()), uint64(b.AsInt64())
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		x, y := a.AsInt64(), b.AsInt64()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
}
