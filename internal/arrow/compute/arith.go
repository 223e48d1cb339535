package compute

import (
	"fmt"

	"gofusion/internal/arrow"
)

// ArithOp identifies an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

var arithNames = [...]string{"+", "-", "*", "/", "%"}

func (op ArithOp) String() string { return arithNames[op] }

type arithNum interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

var errDivZero = fmt.Errorf("compute: division by zero")

func arithVecVec[T arithNum](op ArithOp, a, b []T, valid arrow.Bitmap, isInt bool, buf *Buf) ([]T, error) {
	out := values[T](buf, len(a))
	switch op {
	case Add:
		for i := range a {
			out[i] = a[i] + b[i]
		}
	case Sub:
		for i := range a {
			out[i] = a[i] - b[i]
		}
	case Mul:
		for i := range a {
			out[i] = a[i] * b[i]
		}
	case Div:
		if isInt {
			for i := range a {
				if b[i] == 0 {
					if valid.Get(i) {
						return nil, errDivZero
					}
					out[i] = 0
					continue
				}
				out[i] = a[i] / b[i]
			}
		} else {
			for i := range a {
				out[i] = a[i] / b[i]
			}
		}
	case Mod:
		if !isInt {
			return nil, fmt.Errorf("compute: %% requires integer operands")
		}
		for i := range a {
			if b[i] == 0 {
				if valid.Get(i) {
					return nil, errDivZero
				}
				out[i] = 0
				continue
			}
			out[i] = mod(a[i], b[i])
		}
	}
	return out, nil
}

// mod computes a%b using integer semantics; float instantiations never call
// it (guarded by isInt), but the expression must still compile, so we route
// through int64.
func mod[T arithNum](a, b T) T { return T(int64(a) % int64(b)) }

// resultType computes the output type of `a op b` for same-kind operands,
// handling decimal scale arithmetic; a Null operand takes the other's type.
func resultType(op ArithOp, ta, tb *arrow.DataType) *arrow.DataType {
	switch {
	case ta.ID == arrow.NULL:
		return tb
	case tb.ID == arrow.NULL:
		return ta
	case ta.ID == arrow.DECIMAL || tb.ID == arrow.DECIMAL:
		sa, sb := ta.Scale, tb.Scale
		switch op {
		case Mul:
			return arrow.Decimal(18, sa+sb)
		case Div:
			// The planner rewrites decimal division to float; direct calls
			// get a conservative widened scale.
			return arrow.Decimal(18, max(sa, sb)+4)
		default:
			return arrow.Decimal(18, max(sa, sb))
		}
	}
	return ta
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var errDecimalDiv = fmt.Errorf("compute: decimal division must be rewritten to float division")

// Arith evaluates `a op b` element-wise into buf (nil allocates). Operands
// must share a physical kind; for decimals they must share a scale for +/-
// (the planner coerces). A Null-typed operand makes every slot NULL.
func Arith(op ArithOp, a, b arrow.Array, buf *Buf) (arrow.Array, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("compute: arithmetic length mismatch %d vs %d", a.Len(), b.Len())
	}
	out := resultType(op, a.DataType(), b.DataType())
	if a.DataType().ID == arrow.NULL || b.DataType().ID == arrow.NULL {
		return nulls(out, a.Len()), nil
	}
	if a.DataType().ID == arrow.DECIMAL && op == Div {
		return nil, errDecimalDiv
	}
	valid := andValidity(a, b, buf)
	switch physicalKind(a.DataType()) {
	case kindI8:
		return arithArrays[int8](op, a, b, out, valid, true, buf)
	case kindI16:
		return arithArrays[int16](op, a, b, out, valid, true, buf)
	case kindI32:
		return arithArrays[int32](op, a, b, out, valid, true, buf)
	case kindI64:
		return arithArrays[int64](op, a, b, out, valid, true, buf)
	case kindU8:
		return arithArrays[uint8](op, a, b, out, valid, true, buf)
	case kindU16:
		return arithArrays[uint16](op, a, b, out, valid, true, buf)
	case kindU32:
		return arithArrays[uint32](op, a, b, out, valid, true, buf)
	case kindU64:
		return arithArrays[uint64](op, a, b, out, valid, true, buf)
	case kindF32:
		return arithArrays[float32](op, a, b, out, valid, false, buf)
	case kindF64:
		return arithArrays[float64](op, a, b, out, valid, false, buf)
	}
	return nil, fmt.Errorf("compute: arithmetic unsupported for %s", a.DataType())
}

func arithArrays[T arithNum](op ArithOp, a, b arrow.Array, out *arrow.DataType, valid arrow.Bitmap, isInt bool, buf *Buf) (arrow.Array, error) {
	x, y := numArrays[T](a, b)
	vs, err := arithVecVec(op, x.Values(), y.Values(), valid, isInt, buf)
	if err != nil {
		return nil, err
	}
	return arrow.NewNumeric(out, vs, valid), nil
}

// ArithScalar evaluates `a op s` (or `s op a` when scalarLeft) with a
// broadcast scalar operand, into buf (nil allocates). An integer array
// narrower than an Int64 scalar is widened value by value inside the loop,
// so the planner need not cast the column first (one temporary array per
// use of it); the result is what cast-then-op gives, wrapping mod 2^64. A
// NULL scalar or a Null-typed array makes every slot NULL.
func ArithScalar(op ArithOp, a arrow.Array, s arrow.Scalar, scalarLeft bool, buf *Buf) (arrow.Array, error) {
	n := a.Len()
	widen := s.Type.ID == arrow.INT64 && a.DataType().IsInteger() && a.DataType().BitWidth() < 64
	ta, tb := a.DataType(), s.Type
	if scalarLeft {
		ta, tb = tb, ta
	}
	out := resultType(op, ta, tb)
	if widen {
		out = s.Type
	}
	if s.Null || a.DataType().ID == arrow.NULL {
		return nulls(out, n), nil
	}
	valid := copyValidity(buf, a.Validity(), n)
	switch physicalKind(a.DataType()) {
	case kindI8:
		return intScalarArith(op, a.(*arrow.Int8Array), s, widen, scalarLeft, out, valid, buf)
	case kindI16:
		return intScalarArith(op, a.(*arrow.Int16Array), s, widen, scalarLeft, out, valid, buf)
	case kindI32:
		return intScalarArith(op, a.(*arrow.Int32Array), s, widen, scalarLeft, out, valid, buf)
	case kindI64:
		if a.DataType().ID == arrow.DECIMAL && op == Div {
			return nil, errDecimalDiv
		}
		return scalarArith(op, a.(*arrow.Int64Array), s.AsInt64(), scalarLeft, out, valid, true, buf)
	case kindU8:
		return intScalarArith(op, a.(*arrow.Uint8Array), s, widen, scalarLeft, out, valid, buf)
	case kindU16:
		return intScalarArith(op, a.(*arrow.Uint16Array), s, widen, scalarLeft, out, valid, buf)
	case kindU32:
		return intScalarArith(op, a.(*arrow.Uint32Array), s, widen, scalarLeft, out, valid, buf)
	case kindU64:
		return scalarArith(op, a.(*arrow.Uint64Array), uint64(s.AsInt64()), scalarLeft, out, valid, true, buf)
	case kindF32:
		return scalarArith(op, a.(*arrow.Float32Array), float32(s.AsFloat64()), scalarLeft, out, valid, false, buf)
	case kindF64:
		return scalarArith(op, a.(*arrow.Float64Array), s.AsFloat64(), scalarLeft, out, valid, false, buf)
	}
	return nil, fmt.Errorf("compute: scalar arithmetic unsupported for %s", a.DataType())
}

// intScalarArith computes in int64 when widening and in the array's own
// type otherwise.
func intScalarArith[T arithNum](op ArithOp, a *arrow.NumericArray[T], s arrow.Scalar, widen, scalarLeft bool, out *arrow.DataType, valid arrow.Bitmap, buf *Buf) (arrow.Array, error) {
	if widen {
		return scalarArith(op, a, s.AsInt64(), scalarLeft, out, valid, true, buf)
	}
	return scalarArith(op, a, T(s.AsInt64()), scalarLeft, out, valid, true, buf)
}

// scalarArith applies op between each value of a, converted to R, and s.
func scalarArith[T, R arithNum](op ArithOp, a *arrow.NumericArray[T], s R, scalarLeft bool, out *arrow.DataType, valid arrow.Bitmap, isInt bool, buf *Buf) (arrow.Array, error) {
	av := a.Values()
	res := values[R](buf, len(av))
	apply := func(x, y R) (R, error) {
		switch op {
		case Add:
			return x + y, nil
		case Sub:
			return x - y, nil
		case Mul:
			return x * y, nil
		case Div:
			if isInt && y == 0 {
				return 0, errDivZero
			}
			return x / y, nil
		default:
			if !isInt {
				return 0, fmt.Errorf("compute: %% requires integer operands")
			}
			if y == 0 {
				return 0, errDivZero
			}
			return mod(x, y), nil
		}
	}
	// Fast paths for the common commutative/simple cases.
	switch {
	case op == Add && !scalarLeft:
		for i, v := range av {
			res[i] = R(v) + s
		}
	case op == Mul && !scalarLeft:
		for i, v := range av {
			res[i] = R(v) * s
		}
	case op == Sub && !scalarLeft:
		for i, v := range av {
			res[i] = R(v) - s
		}
	case op == Sub && scalarLeft:
		for i, v := range av {
			res[i] = s - R(v)
		}
	default:
		for i, v := range av {
			if valid != nil && !valid.Get(i) {
				res[i] = 0
				continue
			}
			x, y := R(v), s
			if scalarLeft {
				x, y = y, x
			}
			r, err := apply(x, y)
			if err != nil {
				return nil, err
			}
			res[i] = r
		}
	}
	return arrow.NewNumeric(out, res, valid), nil
}

// Negate returns -a for numeric arrays, into buf (nil allocates).
func Negate(a arrow.Array, buf *Buf) (arrow.Array, error) {
	return ArithScalar(Sub, a, arrow.Scalar{Type: a.DataType(), Val: zeroOf(a.DataType())}, true, buf)
}

func zeroOf(t *arrow.DataType) any {
	switch physicalKind(t) {
	case kindI8:
		return int8(0)
	case kindI16:
		return int16(0)
	case kindI32:
		return int32(0)
	case kindI64:
		return int64(0)
	case kindU8:
		return uint8(0)
	case kindU16:
		return uint16(0)
	case kindU32:
		return uint32(0)
	case kindU64:
		return uint64(0)
	case kindF32:
		return float32(0)
	default:
		return float64(0)
	}
}
