package physical

import (
	"fmt"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
)

// Compiler lowers logical expressions to physical expressions against a
// fixed input schema.
type Compiler struct {
	Schema *logical.Schema
	Reg    *functions.Registry
}

// NewCompiler builds an expression compiler for one input schema.
func NewCompiler(schema *logical.Schema, reg *functions.Registry) *Compiler {
	return &Compiler{Schema: schema, Reg: reg}
}

// coerceBinary inserts casts so both sides of a comparison or arithmetic
// operator share a physical kind.
func (c *Compiler) coerceBinary(op logical.BinOp, l, r PhysicalExpr) (PhysicalExpr, PhysicalExpr, error) {
	lt, rt := l.DataType(), r.DataType()
	// Decimal division computes in floats (checked before the equal-type
	// fast path: two same-scale decimals still must not divide directly).
	if op == logical.OpDiv && (lt.ID == arrow.DECIMAL || rt.ID == arrow.DECIMAL) {
		return castTo(l, arrow.Float64), castTo(r, arrow.Float64), nil
	}
	if lt.Equal(rt) {
		return l, r, nil
	}
	if op.IsLogical() || lt.IsTemporal() || rt.IsTemporal() {
		return l, r, nil
	}
	if lt.ID == arrow.NULL || rt.ID == arrow.NULL {
		return l, r, nil
	}
	// Decimal multiplication keeps both scales (kernel handles scale math).
	if op == logical.OpMul && lt.ID == arrow.DECIMAL && rt.ID == arrow.DECIMAL {
		return l, r, nil
	}
	common, err := logical.PromoteNumeric(lt, rt)
	if err != nil {
		// Fall back to string comparison when either side is a string.
		if lt.ID == arrow.STRING || rt.ID == arrow.STRING {
			if lt.ID != arrow.STRING {
				l = castTo(l, arrow.String)
			}
			if rt.ID != arrow.STRING {
				r = castTo(r, arrow.String)
			}
			return l, r, nil
		}
		return nil, nil, err
	}
	// compute.ArithScalar widens a narrower integer operand of an Int64
	// literal inside its loop, which saves the cast's temporary array.
	if op.IsArithmetic() && common.ID == arrow.INT64 && (isLiteralOf(l, common) || isLiteralOf(r, common)) &&
		lt.IsInteger() && rt.IsInteger() && min(lt.BitWidth(), rt.BitWidth()) < 64 {
		return l, r, nil
	}
	if !lt.Equal(common) {
		l = castTo(l, common)
	}
	if !rt.Equal(common) {
		r = castTo(r, common)
	}
	return l, r, nil
}

// castTo converts e to t, folding a literal at plan time so that no cast
// runs per batch; a literal that does not convert keeps its runtime cast
// and fails, as before, when evaluated.
func castTo(e PhysicalExpr, t *arrow.DataType) PhysicalExpr {
	if lit, ok := e.(*LiteralExpr); ok {
		if s, err := compute.CastScalar(lit.Value, t); err == nil {
			return &LiteralExpr{Value: s}
		}
	}
	return &CastExpr{E: e, To: t}
}

func isLiteralOf(e PhysicalExpr, t *arrow.DataType) bool {
	lit, ok := e.(*LiteralExpr)
	return ok && lit.Value.Type.Equal(t)
}

// Compile lowers a logical expression.
func (c *Compiler) Compile(e logical.Expr) (PhysicalExpr, error) {
	switch x := e.(type) {
	case *logical.Column:
		i, err := c.Schema.IndexOfColumn(x)
		if err != nil {
			return nil, err
		}
		f := c.Schema.Field(i)
		return NewColumnExpr(i, f.Name, f.Type), nil
	case *logical.Literal:
		return &LiteralExpr{Value: x.Value}, nil
	case *logical.Alias:
		return c.Compile(x.E)
	case *logical.BinaryExpr:
		l, err := c.Compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(x.R)
		if err != nil {
			return nil, err
		}
		l, r, err = c.coerceBinary(x.Op, l, r)
		if err != nil {
			return nil, err
		}
		t, err := binaryResultType(x.Op, l.DataType(), r.DataType())
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, L: l, R: r, Type: t}, nil
	case *logical.Not:
		inner, err := c.Compile(x.E)
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: inner}, nil
	case *logical.IsNull:
		inner, err := c.Compile(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{E: inner, Negated: x.Negated}, nil
	case *logical.Negative:
		inner, err := c.Compile(x.E)
		if err != nil {
			return nil, err
		}
		return &NegativeExpr{E: inner}, nil
	case *logical.Cast:
		inner, err := c.Compile(x.E)
		if err != nil {
			return nil, err
		}
		return &CastExpr{E: inner, To: x.To}, nil
	case *logical.Like:
		inner, err := c.Compile(x.E)
		if err != nil {
			return nil, err
		}
		lit, ok := x.Pattern.(*logical.Literal)
		if !ok || lit.Value.Null {
			return nil, fmt.Errorf("physical: LIKE pattern must be a literal")
		}
		return NewLikeExpr(inner, lit.Value.AsString(), x.Negated, x.CaseInsensitive)
	case *logical.InList:
		inner, err := c.Compile(x.E)
		if err != nil {
			return nil, err
		}
		lits := make([]arrow.Scalar, 0, len(x.List))
		for _, item := range x.List {
			pi, err := c.Compile(item)
			if err != nil {
				return nil, err
			}
			if lit, ok := pi.(*LiteralExpr); ok {
				lits = append(lits, lit.Value)
			}
		}
		if len(lits) == len(x.List) {
			if set, ok := compute.NewInSet(inner.DataType(), lits, x.Negated); ok {
				return &InListExpr{E: inner, Set: set, n: len(lits)}, nil
			}
		}
		// Otherwise the list is its equivalent: e = a OR e = b ...
		var or logical.Expr
		for _, item := range x.List {
			var eq logical.Expr = &logical.BinaryExpr{Op: logical.OpEq, L: x.E, R: item}
			if or != nil {
				eq = &logical.BinaryExpr{Op: logical.OpOr, L: or, R: eq}
			}
			or = eq
		}
		if or == nil {
			return nil, fmt.Errorf("physical: empty IN list")
		}
		if x.Negated {
			or = &logical.Not{E: or}
		}
		return c.Compile(or)
	case *logical.Between:
		// Rewrite to e >= low AND e <= high (negated: e < low OR e > high).
		low := &logical.BinaryExpr{Op: logical.OpGtEq, L: x.E, R: x.Low}
		high := &logical.BinaryExpr{Op: logical.OpLtEq, L: x.E, R: x.High}
		var rewritten logical.Expr = &logical.BinaryExpr{Op: logical.OpAnd, L: low, R: high}
		if x.Negated {
			rewritten = &logical.Not{E: rewritten}
		}
		return c.Compile(rewritten)
	case *logical.Case:
		t, err := logical.TypeOf(x, c.Schema, c.Reg)
		if err != nil {
			return nil, err
		}
		out := &CaseExpr{Type: t}
		if x.Operand != nil {
			op, err := c.Compile(x.Operand)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		for _, w := range x.Whens {
			we, err := c.Compile(w.When)
			if err != nil {
				return nil, err
			}
			te, err := c.Compile(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, we)
			out.Thens = append(out.Thens, te)
		}
		if x.Else != nil {
			ee, err := c.Compile(x.Else)
			if err != nil {
				return nil, err
			}
			out.Else = ee
		}
		return out, nil
	case *logical.ScalarFunc:
		fn, ok := c.Reg.Scalar(x.Name)
		if !ok {
			return nil, fmt.Errorf("physical: unknown scalar function %q", x.Name)
		}
		args := make([]PhysicalExpr, len(x.Args))
		types := make([]*arrow.DataType, len(x.Args))
		for i, a := range x.Args {
			pa, err := c.Compile(a)
			if err != nil {
				return nil, err
			}
			args[i] = pa
			types[i] = pa.DataType()
		}
		t, err := fn.ReturnType(types)
		if err != nil {
			return nil, err
		}
		return &ScalarFuncExpr{Fn: fn, Args: args, Type: t}, nil
	case *logical.AggFunc:
		return nil, fmt.Errorf("physical: aggregate %q outside aggregation context", x.Name)
	case *logical.WindowFunc:
		return nil, fmt.Errorf("physical: window function %q outside window context", x.Name)
	case *logical.ScalarSubquery, *logical.Exists, *logical.InSubquery:
		return nil, fmt.Errorf("physical: subquery was not decorrelated (unsupported correlation shape)")
	case *logical.Wildcard:
		return nil, fmt.Errorf("physical: unexpanded wildcard")
	}
	return nil, fmt.Errorf("physical: cannot compile %T", e)
}

func binaryResultType(op logical.BinOp, lt, rt *arrow.DataType) (*arrow.DataType, error) {
	switch {
	case op.IsComparison(), op.IsLogical():
		return arrow.Boolean, nil
	case op == logical.OpConcat:
		return arrow.String, nil
	}
	if lt.IsTemporal() || rt.IsTemporal() {
		switch {
		case op == logical.OpSub && lt.ID == rt.ID:
			return arrow.Interval, nil
		case rt.ID == arrow.INTERVAL && lt.ID != arrow.INTERVAL:
			return lt, nil
		case lt.ID == arrow.INTERVAL && rt.ID != arrow.INTERVAL:
			return rt, nil
		default:
			return arrow.Interval, nil
		}
	}
	if lt.ID == arrow.DECIMAL && rt.ID == arrow.DECIMAL && op == logical.OpMul {
		return arrow.Decimal(18, lt.Scale+rt.Scale), nil
	}
	if lt.ID == arrow.NULL {
		return rt, nil
	}
	// Integer operands of different widths reach here only where
	// coerceBinary left the widening to the kernel.
	if lt.IsInteger() && rt.IsInteger() {
		return logical.PromoteNumeric(lt, rt)
	}
	return lt, nil
}
