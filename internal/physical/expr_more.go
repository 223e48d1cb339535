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
	// Negated is NOT LIKE. CaseInsensitive is ILIKE: inputs are lowercased
	// before matching against the pre-lowercased pattern.
	Negated, CaseInsensitive bool
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
	return &LikeExpr{E: e, Pattern: pattern, Matcher: m, Negated: negated, CaseInsensitive: caseInsensitive}, nil
}

func (e *LikeExpr) DataType() *arrow.DataType { return arrow.Boolean }
func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.CaseInsensitive {
		op = "ILIKE"
	}
	if e.Negated {
		op = "NOT " + op
	}
	return fmt.Sprintf("%s %s %q", e.E, op, e.Pattern)
}
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
	if e.CaseInsensitive {
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

// InListExpr is `expr [NOT] IN (literals...)`, probing a set built at
// plan time. A list with a non-literal item compiles to ORed equalities
// instead.
type InListExpr struct {
	E   PhysicalExpr
	Set *compute.InSet
	n   int // items in the list as written
}

func (e *InListExpr) DataType() *arrow.DataType { return arrow.Boolean }
func (e *InListExpr) String() string {
	op := "IN"
	if e.Set.Negated() {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%d items)", e.E, op, e.n)
}

func (e *InListExpr) Evaluate(b *arrow.RecordBatch, s *Scratch) (arrow.Datum, error) {
	d, err := e.E.Evaluate(b, s)
	if err != nil {
		return arrow.Datum{}, err
	}
	out, err := e.Set.Eval(d.ToArray(b.NumRows()), s.buf(e))
	if err != nil {
		return arrow.Datum{}, err
	}
	return arrow.ArrayDatum(out), nil
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
