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

func arithVecVec[T arithNum](op ArithOp, a, b []T, valid arrow.Bitmap, isInt bool) ([]T, error) {
	out := make([]T, len(a))
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
// handling decimal scale arithmetic.
func resultType(op ArithOp, ta, tb *arrow.DataType) *arrow.DataType {
	if ta.ID == arrow.DECIMAL || tb.ID == arrow.DECIMAL {
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

// Arith evaluates `a op b` element-wise. Operands must share a physical
// kind; for decimals they must share a scale for +/- (the planner coerces).
func Arith(op ArithOp, a, b arrow.Array) (arrow.Array, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("compute: arithmetic length mismatch %d vs %d", a.Len(), b.Len())
	}
	valid := andValidity(a, b)
	out := resultType(op, a.DataType(), b.DataType())
	switch physicalKind(a.DataType()) {
	case kindI8:
		x, y := numArrays[int8](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindI16:
		x, y := numArrays[int16](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindI32:
		x, y := numArrays[int32](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindI64:
		x, y := numArrays[int64](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		if err != nil {
			return nil, err
		}
		if a.DataType().ID == arrow.DECIMAL && op == Div {
			return nil, fmt.Errorf("compute: decimal division must be rewritten to float division")
		}
		return arrow.NewNumeric(out, vs, valid), nil
	case kindU8:
		x, y := numArrays[uint8](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindU16:
		x, y := numArrays[uint16](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindU32:
		x, y := numArrays[uint32](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindU64:
		x, y := numArrays[uint64](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, true)
		return arrow.NewNumeric(out, vs, valid), err
	case kindF32:
		x, y := numArrays[float32](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, false)
		return arrow.NewNumeric(out, vs, valid), err
	case kindF64:
		x, y := numArrays[float64](a, b)
		vs, err := arithVecVec(op, x.Values(), y.Values(), valid, false)
		return arrow.NewNumeric(out, vs, valid), err
	}
	return nil, fmt.Errorf("compute: arithmetic unsupported for %s", a.DataType())
}

// ArithScalar evaluates `a op s` (or `s op a` when scalarLeft) with a
// broadcast scalar operand. An integer array narrower than an Int64 scalar
// is widened value by value inside the loop, so the planner need not cast
// the column first (one temporary array per use of it); the result is what
// cast-then-op gives, wrapping mod 2^64.
func ArithScalar(op ArithOp, a arrow.Array, s arrow.Scalar, scalarLeft bool) (arrow.Array, error) {
	n := a.Len()
	widen := s.Type.ID == arrow.INT64 && a.DataType().IsInteger() && a.DataType().BitWidth() < 64
	if s.Null {
		t := resultType(op, a.DataType(), s.Type)
		if widen {
			t = s.Type
		}
		b := arrow.NewBuilder(t)
		for i := 0; i < n; i++ {
			b.AppendNull()
		}
		return b.Finish(), nil
	}
	var ta, tb *arrow.DataType
	if scalarLeft {
		ta, tb = s.Type, a.DataType()
	} else {
		ta, tb = a.DataType(), s.Type
	}
	out := resultType(op, ta, tb)
	if widen {
		out = s.Type
	}
	valid := a.Validity().Clone()
	switch physicalKind(a.DataType()) {
	case kindI8:
		return intScalarArith(op, a.(*arrow.Int8Array), s, widen, scalarLeft, out, valid)
	case kindI16:
		return intScalarArith(op, a.(*arrow.Int16Array), s, widen, scalarLeft, out, valid)
	case kindI32:
		return intScalarArith(op, a.(*arrow.Int32Array), s, widen, scalarLeft, out, valid)
	case kindI64:
		if a.DataType().ID == arrow.DECIMAL && op == Div {
			return nil, fmt.Errorf("compute: decimal division must be rewritten to float division")
		}
		return scalarArith(op, a.(*arrow.Int64Array), s.AsInt64(), scalarLeft, out, valid, true)
	case kindU8:
		return intScalarArith(op, a.(*arrow.Uint8Array), s, widen, scalarLeft, out, valid)
	case kindU16:
		return intScalarArith(op, a.(*arrow.Uint16Array), s, widen, scalarLeft, out, valid)
	case kindU32:
		return intScalarArith(op, a.(*arrow.Uint32Array), s, widen, scalarLeft, out, valid)
	case kindU64:
		return scalarArith(op, a.(*arrow.Uint64Array), uint64(s.AsInt64()), scalarLeft, out, valid, true)
	case kindF32:
		return scalarArith(op, a.(*arrow.Float32Array), float32(s.AsFloat64()), scalarLeft, out, valid, false)
	case kindF64:
		return scalarArith(op, a.(*arrow.Float64Array), s.AsFloat64(), scalarLeft, out, valid, false)
	}
	return nil, fmt.Errorf("compute: scalar arithmetic unsupported for %s", a.DataType())
}

// intScalarArith computes in int64 when widening and in the array's own
// type otherwise.
func intScalarArith[T arithNum](op ArithOp, a *arrow.NumericArray[T], s arrow.Scalar, widen, scalarLeft bool, out *arrow.DataType, valid arrow.Bitmap) (arrow.Array, error) {
	if widen {
		return scalarArith(op, a, s.AsInt64(), scalarLeft, out, valid, true)
	}
	return scalarArith(op, a, T(s.AsInt64()), scalarLeft, out, valid, true)
}

// scalarArith applies op between each value of a, converted to R, and s.
func scalarArith[T, R arithNum](op ArithOp, a *arrow.NumericArray[T], s R, scalarLeft bool, out *arrow.DataType, valid arrow.Bitmap, isInt bool) (arrow.Array, error) {
	av := a.Values()
	res := make([]R, len(av))
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

// Negate returns -a for numeric arrays.
func Negate(a arrow.Array) (arrow.Array, error) {
	return ArithScalar(Sub, a, arrow.Scalar{Type: a.DataType(), Val: zeroOf(a.DataType())}, true)
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
