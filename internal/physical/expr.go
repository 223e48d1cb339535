package physical

import (
	"fmt"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
)

func errNotBoolean(t *arrow.DataType) error {
	return fmt.Errorf("physical: predicate evaluated to %s, not boolean", t)
}

// ColumnExpr reads input column Index.
type ColumnExpr struct {
	Index int
	Name  string
	Type  *arrow.DataType
}

// NewColumnExpr builds a column reference.
func NewColumnExpr(index int, name string, t *arrow.DataType) *ColumnExpr {
	return &ColumnExpr{Index: index, Name: name, Type: t}
}

func (c *ColumnExpr) DataType() *arrow.DataType { return c.Type }
func (c *ColumnExpr) String() string            { return fmt.Sprintf("%s@%d", c.Name, c.Index) }
func (c *ColumnExpr) Evaluate(b *arrow.RecordBatch, _ *Scratch) (arrow.Datum, error) {
	if c.Index >= b.NumCols() {
		return arrow.Datum{}, fmt.Errorf("physical: column %s@%d out of range (%d cols)", c.Name, c.Index, b.NumCols())
	}
	return arrow.ArrayDatum(b.Column(c.Index)), nil
}

// LiteralExpr is a constant.
type LiteralExpr struct{ Value arrow.Scalar }

func (l *LiteralExpr) DataType() *arrow.DataType { return l.Value.Type }
func (l *LiteralExpr) String() string            { return l.Value.String() }
func (l *LiteralExpr) Evaluate(*arrow.RecordBatch, *Scratch) (arrow.Datum, error) {
	return arrow.ScalarDatum(l.Value), nil
}

var cmpOps = map[logical.BinOp]compute.CmpOp{
	logical.OpEq: compute.Eq, logical.OpNeq: compute.Neq,
	logical.OpLt: compute.Lt, logical.OpLtEq: compute.LtEq,
	logical.OpGt: compute.Gt, logical.OpGtEq: compute.GtEq,
}

var arithOps = map[logical.BinOp]compute.ArithOp{
	logical.OpAdd: compute.Add, logical.OpSub: compute.Sub,
	logical.OpMul: compute.Mul, logical.OpDiv: compute.Div, logical.OpMod: compute.Mod,
}

// BinaryExpr applies a binary operator with vectorized kernels and scalar
// broadcast fast paths.
type BinaryExpr struct {
	Op   logical.BinOp
	L, R PhysicalExpr
	Type *arrow.DataType
}

func (e *BinaryExpr) DataType() *arrow.DataType { return e.Type }
func (e *BinaryExpr) String() string {
	return fmt.Sprintf("%s %s %s", e.L, e.Op, e.R)
}

func (e *BinaryExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	l, err := e.L.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	r, err := e.R.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	n := b.NumRows()

	// Temporal arithmetic dispatches before numeric kernels.
	if e.Op.IsArithmetic() && (l.DataType().IsTemporal() || r.DataType().IsTemporal()) {
		out, err := evalTemporalArith(e.Op, l, r, n)
		return out, err
	}

	if op, ok := cmpOps[e.Op]; ok {
		switch {
		case l.IsArray() && r.IsArray():
			out, err := compute.Compare(op, l.Array(), r.Array(), s.buf(e))
			return arrow.ArrayDatum(out), err
		case l.IsArray():
			out, err := compute.CompareScalar(op, l.Array(), r.ScalarValue(), s.buf(e))
			return arrow.ArrayDatum(out), err
		case r.IsArray():
			out, err := compute.CompareScalar(op.Flip(), r.Array(), l.ScalarValue(), s.buf(e))
			return arrow.ArrayDatum(out), err
		default:
			ls, rs := l.ScalarValue(), r.ScalarValue()
			if ls.Null || rs.Null {
				return arrow.ScalarDatum(arrow.NullScalar(arrow.Boolean)), nil
			}
			c := compute.CompareScalars(ls, rs)
			var v bool
			switch op {
			case compute.Eq:
				v = c == 0
			case compute.Neq:
				v = c != 0
			case compute.Lt:
				v = c < 0
			case compute.LtEq:
				v = c <= 0
			case compute.Gt:
				v = c > 0
			default:
				v = c >= 0
			}
			return arrow.ScalarDatum(arrow.BoolScalar(v)), nil
		}
	}

	if e.Op.IsLogical() {
		la, ok1 := l.ToArray(n).(*arrow.BoolArray)
		ra, ok2 := r.ToArray(n).(*arrow.BoolArray)
		if !ok1 || !ok2 {
			return arrow.Datum{}, errNotBoolean(l.DataType())
		}
		var out *arrow.BoolArray
		if e.Op == logical.OpAnd {
			out, err = compute.And(la, ra, s.buf(e))
		} else {
			out, err = compute.Or(la, ra, s.buf(e))
		}
		return arrow.ArrayDatum(out), err
	}

	if e.Op == logical.OpConcat {
		return evalConcatOp(l, r, n)
	}

	op := arithOps[e.Op]
	switch {
	case l.IsArray() && r.IsArray():
		out, err := compute.Arith(op, l.Array(), r.Array(), s.buf(e))
		return arrow.ArrayDatum(out), err
	case l.IsArray():
		out, err := compute.ArithScalar(op, l.Array(), r.ScalarValue(), false, s.buf(e))
		return arrow.ArrayDatum(out), err
	case r.IsArray():
		out, err := compute.ArithScalar(op, r.Array(), l.ScalarValue(), true, s.buf(e))
		return arrow.ArrayDatum(out), err
	default:
		la := arrow.ScalarToArray(l.ScalarValue(), 1)
		out, err := compute.ArithScalar(op, la, r.ScalarValue(), false, nil)
		if err != nil {
			return arrow.Datum{}, err
		}
		return arrow.ScalarDatum(out.GetScalar(0)), nil
	}
}

func evalConcatOp(l, r arrow.Datum, n int) (arrow.Datum, error) {
	la := l.ToArray(n)
	ra := r.ToArray(n)
	if la.DataType().ID != arrow.STRING {
		var err error
		la, err = compute.Cast(la, arrow.String, nil)
		if err != nil {
			return arrow.Datum{}, err
		}
	}
	if ra.DataType().ID != arrow.STRING {
		var err error
		ra, err = compute.Cast(ra, arrow.String, nil)
		if err != nil {
			return arrow.Datum{}, err
		}
	}
	ls, rs := la.(*arrow.StringArray), ra.(*arrow.StringArray)
	b := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		if ls.IsNull(i) || rs.IsNull(i) {
			b.AppendNull()
			continue
		}
		b.Append(ls.Value(i) + rs.Value(i))
	}
	return arrow.ArrayDatum(b.Finish()), nil
}

// evalTemporalArith handles date/timestamp +- interval and
// date - date -> interval.
func evalTemporalArith(op logical.BinOp, l, r arrow.Datum, n int) (arrow.Datum, error) {
	lt, rt := l.DataType(), r.DataType()
	// interval + temporal => temporal + interval
	if lt.ID == arrow.INTERVAL && rt.ID != arrow.INTERVAL && op == logical.OpAdd {
		return evalTemporalArith(op, r, l, n)
	}
	switch {
	case (lt.ID == arrow.DATE32 || lt.ID == arrow.TIMESTAMP) && rt.ID == arrow.INTERVAL:
		la := l.ToArray(n)
		ra := r.ToArray(n)
		ia := ra.(*arrow.IntervalArray)
		b := arrow.NewBuilder(lt)
		neg := op == logical.OpSub
		for i := 0; i < n; i++ {
			if la.IsNull(i) || ia.IsNull(i) {
				b.AppendNull()
				continue
			}
			iv := ia.Value(i)
			if neg {
				iv = arrow.MonthDayMicro{Months: -iv.Months, Days: -iv.Days, Micros: -iv.Micros}
			}
			if lt.ID == arrow.DATE32 {
				days := int32(la.GetScalar(i).AsInt64())
				t := time.Unix(int64(days)*86400, 0).UTC().
					AddDate(0, int(iv.Months), int(iv.Days)).
					Add(time.Duration(iv.Micros) * time.Microsecond)
				b.AppendScalar(arrow.NewScalar(arrow.Date32, int32(t.Unix()/86400)))
			} else {
				us := la.GetScalar(i).AsInt64()
				t := time.UnixMicro(us).UTC().
					AddDate(0, int(iv.Months), int(iv.Days)).
					Add(time.Duration(iv.Micros) * time.Microsecond)
				b.AppendScalar(arrow.NewScalar(arrow.Timestamp, t.UnixMicro()))
			}
		}
		return arrow.ArrayDatum(b.Finish()), nil
	case lt.ID == rt.ID && (lt.ID == arrow.DATE32 || lt.ID == arrow.TIMESTAMP) && op == logical.OpSub:
		la, ra := l.ToArray(n), r.ToArray(n)
		ib := arrow.NewIntervalBuilder()
		for i := 0; i < n; i++ {
			if la.IsNull(i) || ra.IsNull(i) {
				ib.AppendNull()
				continue
			}
			if lt.ID == arrow.DATE32 {
				d := int32(la.GetScalar(i).AsInt64()) - int32(ra.GetScalar(i).AsInt64())
				ib.Append(arrow.MonthDayMicro{Days: d})
			} else {
				us := la.GetScalar(i).AsInt64() - ra.GetScalar(i).AsInt64()
				ib.Append(arrow.MonthDayMicro{Micros: us})
			}
		}
		return arrow.ArrayDatum(ib.Finish()), nil
	case lt.ID == arrow.INTERVAL && rt.ID == arrow.INTERVAL:
		la, ra := l.ToArray(n).(*arrow.IntervalArray), r.ToArray(n).(*arrow.IntervalArray)
		ib := arrow.NewIntervalBuilder()
		neg := int32(1)
		if op == logical.OpSub {
			neg = -1
		}
		for i := 0; i < n; i++ {
			if la.IsNull(i) || ra.IsNull(i) {
				ib.AppendNull()
				continue
			}
			x, y := la.Value(i), ra.Value(i)
			ib.Append(arrow.MonthDayMicro{
				Months: x.Months + neg*y.Months,
				Days:   x.Days + neg*y.Days,
				Micros: x.Micros + int64(neg)*y.Micros,
			})
		}
		return arrow.ArrayDatum(ib.Finish()), nil
	}
	return arrow.Datum{}, fmt.Errorf("physical: unsupported temporal arithmetic %s %s %s", lt, op, rt)
}

// NotExpr negates a boolean expression.
type NotExpr struct{ E PhysicalExpr }

func (e *NotExpr) DataType() *arrow.DataType { return arrow.Boolean }
func (e *NotExpr) String() string            { return fmt.Sprintf("NOT %s", e.E) }
func (e *NotExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	arr, ok := d.ToArray(b.NumRows()).(*arrow.BoolArray)
	if !ok {
		return arrow.Datum{}, errNotBoolean(d.DataType())
	}
	return arrow.ArrayDatum(compute.Not(arr, s.buf(e))), nil
}

// IsNullExpr tests for NULL (or NOT NULL).
type IsNullExpr struct {
	E       PhysicalExpr
	Negated bool
}

func (e *IsNullExpr) DataType() *arrow.DataType { return arrow.Boolean }
func (e *IsNullExpr) String() string {
	if e.Negated {
		return fmt.Sprintf("%s IS NOT NULL", e.E)
	}
	return fmt.Sprintf("%s IS NULL", e.E)
}
func (e *IsNullExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	arr := d.ToArray(b.NumRows())
	if e.Negated {
		return arrow.ArrayDatum(compute.IsNotNullMask(arr)), nil
	}
	return arrow.ArrayDatum(compute.IsNullMask(arr)), nil
}

// NegativeExpr is unary minus.
type NegativeExpr struct{ E PhysicalExpr }

func (e *NegativeExpr) DataType() *arrow.DataType { return e.E.DataType() }
func (e *NegativeExpr) String() string            { return fmt.Sprintf("(- %s)", e.E) }
func (e *NegativeExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	out, err := compute.Negate(d.ToArray(b.NumRows()), s.buf(e))
	return arrow.ArrayDatum(out), err
}

// CastExpr converts to a target type.
type CastExpr struct {
	E  PhysicalExpr
	To *arrow.DataType
}

func (e *CastExpr) DataType() *arrow.DataType { return e.To }
func (e *CastExpr) String() string            { return fmt.Sprintf("CAST(%s AS %s)", e.E, e.To) }
func (e *CastExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	if !d.IsArray() {
		s, err := compute.CastScalar(d.ScalarValue(), e.To)
		return arrow.ScalarDatum(s), err
	}
	out, err := compute.Cast(d.Array(), e.To, s.buf(e))
	return arrow.ArrayDatum(out), err
}
