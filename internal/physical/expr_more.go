package physical

import (
	"fmt"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
)

// LikeExpr matches a pre-compiled LIKE pattern.
type LikeExpr struct {
	E       PhysicalExpr
	Pattern string
	Matcher *compute.LikeMatcher
	// lowered marks ILIKE handling: inputs are lowercased before matching
	// against the pre-lowercased pattern.
	lowered bool
}

// NewLikeExpr compiles a LIKE pattern at plan time.
func NewLikeExpr(e PhysicalExpr, pattern string, negated, caseInsensitive bool) (*LikeExpr, error) {
	p := pattern
	if caseInsensitive {
		p = strings.ToLower(p)
	}
	m, err := compute.CompileLike(p, negated)
	if err != nil {
		return nil, err
	}
	out := &LikeExpr{E: e, Pattern: pattern, Matcher: m}
	if caseInsensitive {
		out.lowered = true
	}
	return out, nil
}

func (e *LikeExpr) DataType() *arrow.DataType { return arrow.Boolean }
func (e *LikeExpr) String() string            { return fmt.Sprintf("%s LIKE %q", e.E, e.Pattern) }
func (e *LikeExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	arr := d.ToArray(b.NumRows())
	sa, ok := arr.(*arrow.StringArray)
	if !ok {
		return arrow.Datum{}, fmt.Errorf("physical: LIKE requires string input, got %s", arr.DataType())
	}
	if e.lowered {
		lb := arrow.NewStringBuilder(arrow.String)
		for i := 0; i < sa.Len(); i++ {
			if sa.IsNull(i) {
				lb.AppendNull()
			} else {
				lb.Append(strings.ToLower(sa.Value(i)))
			}
		}
		sa = lb.Finish().(*arrow.StringArray)
	}
	return arrow.ArrayDatum(e.Matcher.Eval(sa)), nil
}

// InListExpr is `expr [NOT] IN (items...)` with a hashed fast path for
// literal lists.
type InListExpr struct {
	E       PhysicalExpr
	List    []PhysicalExpr
	Negated bool

	// Literal fast-path sets, built at plan time when all items are
	// literals of a matching kind.
	strSet      map[string]struct{}
	intSet      map[int64]struct{}
	hasNullItem bool
}

// NewInListExpr builds an IN-list, precomputing literal sets.
func NewInListExpr(e PhysicalExpr, list []PhysicalExpr, negated bool) *InListExpr {
	out := &InListExpr{E: e, List: list, Negated: negated}
	t := e.DataType()
	allLit := true
	for _, item := range list {
		if _, ok := item.(*LiteralExpr); !ok {
			allLit = false
			break
		}
	}
	if allLit {
		switch t.ID {
		case arrow.STRING:
			out.strSet = make(map[string]struct{}, len(list))
			for _, item := range list {
				s := item.(*LiteralExpr).Value
				if s.Null {
					out.hasNullItem = true
					continue
				}
				out.strSet[s.AsString()] = struct{}{}
			}
		case arrow.INT8, arrow.INT16, arrow.INT32, arrow.INT64, arrow.DATE32, arrow.TIMESTAMP, arrow.DECIMAL,
			arrow.UINT8, arrow.UINT16, arrow.UINT32, arrow.UINT64:
			out.intSet = make(map[int64]struct{}, len(list))
			for _, item := range list {
				s := item.(*LiteralExpr).Value
				if s.Null {
					out.hasNullItem = true
					continue
				}
				out.intSet[s.AsInt64()] = struct{}{}
			}
		}
	}
	return out
}

func (e *InListExpr) DataType() *arrow.DataType { return arrow.Boolean }
func (e *InListExpr) String() string {
	op := "IN"
	if e.Negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%d items)", e.E, op, len(e.List))
}

func (e *InListExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	n := b.NumRows()
	arr := d.ToArray(n)

	var mask *arrow.BoolArray
	switch {
	case e.strSet != nil:
		sa := arr.(*arrow.StringArray)
		vals := arrow.NewBitmap(n)
		for i := 0; i < n; i++ {
			if sa.IsValid(i) {
				if _, ok := e.strSet[sa.Value(i)]; ok {
					vals.Set(i)
				}
			}
		}
		mask = arrow.NewBool(vals, arr.Validity().Clone(), n)
	case e.intSet != nil:
		vals := arrow.NewBitmap(n)
		for i := 0; i < n; i++ {
			if arr.IsValid(i) {
				if _, ok := e.intSet[arr.GetScalar(i).AsInt64()]; ok {
					vals.Set(i)
				}
			}
		}
		mask = arrow.NewBool(vals, arr.Validity().Clone(), n)
	default:
		// General case: OR of equality comparisons.
		for _, item := range e.List {
			iv, err := item.Evaluate(b, s)
			if err != nil {
				return arrow.Datum{}, err
			}
			var m *arrow.BoolArray
			if iv.IsArray() {
				m, err = compute.Compare(compute.Eq, arr, iv.Array(), nil)
			} else {
				m, err = compute.CompareScalar(compute.Eq, arr, iv.ScalarValue(), nil)
			}
			if err != nil {
				return arrow.Datum{}, err
			}
			if mask == nil {
				mask = m
			} else {
				mask, err = compute.Or(mask, m, nil)
				if err != nil {
					return arrow.Datum{}, err
				}
			}
		}
		if mask == nil {
			mask = arrow.NewBool(arrow.NewBitmap(n), nil, n)
		}
	}
	// SQL semantics: x NOT IN (..) is NULL if no match and the list
	// contains NULL; x IN with NULL item is NULL unless matched.
	if e.hasNullItem {
		vals := mask.ValuesBitmap()
		valid := arrow.NewBitmap(n)
		for i := 0; i < n; i++ {
			if mask.IsValid(i) && vals.Get(i) {
				valid.Set(i)
			}
		}
		mask = arrow.NewBool(vals, valid, n)
	}
	if e.Negated {
		mask = compute.Not(mask, nil)
	}
	return arrow.ArrayDatum(mask), nil
}

// CaseExpr evaluates SQL CASE.
type CaseExpr struct {
	// Operand is nil for searched CASE.
	Operand PhysicalExpr
	Whens   []PhysicalExpr
	Thens   []PhysicalExpr
	Else    PhysicalExpr // may be nil
	Type    *arrow.DataType
}

func (e *CaseExpr) DataType() *arrow.DataType { return e.Type }
func (e *CaseExpr) String() string            { return "CASE ... END" }

func (e *CaseExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	n := b.NumRows()
	// remaining[i] = row i not yet matched by an earlier WHEN.
	remaining := arrow.NewBitmapSet(n)
	// chosen[i] = branch index + 1, or 0 for ELSE/NULL.
	chosen := make([]int32, n)

	var operand arrow.Array
	if e.Operand != nil {
		op, err := EvalToArray(e.Operand, b, s)
		if err != nil {
			return arrow.Datum{}, err
		}
		operand = op
	}

	for wi, w := range e.Whens {
		var mask *arrow.BoolArray
		if operand != nil {
			wv, err := w.Evaluate(b, s)
			if err != nil {
				return arrow.Datum{}, err
			}
			if wv.IsArray() {
				m, err := compute.Compare(compute.Eq, operand, wv.Array(), nil)
				if err != nil {
					return arrow.Datum{}, err
				}
				mask = m
			} else {
				m, err := compute.CompareScalar(compute.Eq, operand, wv.ScalarValue(), nil)
				if err != nil {
					return arrow.Datum{}, err
				}
				mask = m
			}
		} else {
			m, err := EvalPredicate(w, b, s)
			if err != nil {
				return arrow.Datum{}, err
			}
			mask = m
		}
		for i := 0; i < n; i++ {
			if remaining.Get(i) && mask.IsValid(i) && mask.Value(i) {
				chosen[i] = int32(wi + 1)
				remaining.Clear(i)
			}
		}
	}

	// Evaluate branch values over the full batch, then assemble.
	branchVals := make([]arrow.Array, len(e.Thens))
	for i, t := range e.Thens {
		v, err := EvalToArray(t, b, s)
		if err != nil {
			return arrow.Datum{}, err
		}
		if !v.DataType().Equal(e.Type) {
			v, err = compute.Cast(v, e.Type, nil)
			if err != nil {
				return arrow.Datum{}, err
			}
		}
		branchVals[i] = v
	}
	var elseVals arrow.Array
	if e.Else != nil {
		v, err := EvalToArray(e.Else, b, s)
		if err != nil {
			return arrow.Datum{}, err
		}
		if !v.DataType().Equal(e.Type) {
			v, err = compute.Cast(v, e.Type, nil)
			if err != nil {
				return arrow.Datum{}, err
			}
		}
		elseVals = v
	}

	out := arrow.NewBuilder(e.Type)
	out.Reserve(n)
	for i := 0; i < n; i++ {
		switch {
		case chosen[i] > 0:
			out.AppendFrom(branchVals[chosen[i]-1], i)
		case elseVals != nil:
			out.AppendFrom(elseVals, i)
		default:
			out.AppendNull()
		}
	}
	return arrow.ArrayDatum(out.Finish()), nil
}

// ScalarFuncExpr invokes a registered scalar function.
type ScalarFuncExpr struct {
	Fn   *functions.ScalarFunc
	Args []PhysicalExpr
	Type *arrow.DataType
}

func (e *ScalarFuncExpr) DataType() *arrow.DataType { return e.Type }
func (e *ScalarFuncExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn.Name, strings.Join(args, ", "))
}

func (e *ScalarFuncExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	args := make([]arrow.Datum, len(e.Args))
	for i, a := range e.Args {
		d, err := a.Evaluate(b, s)
		if err != nil {
			return arrow.Datum{}, err
		}
		args[i] = d
	}
	return e.Fn.Eval(args, b.NumRows())
}
