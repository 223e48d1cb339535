package optimizer

import (
	"gofusion/internal/arrow"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// SimplifyExpressions folds constant subexpressions and applies boolean
// algebra identities (paper Section 6.1: "expression simplification").
type SimplifyExpressions struct{}

// Name implements Rule.
func (*SimplifyExpressions) Name() string { return "simplify_expressions" }

// Apply implements Rule.
func (r *SimplifyExpressions) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return logical.TransformPlan(plan, func(p logical.Plan) (logical.Plan, error) {
		switch n := p.(type) {
		case *logical.Filter:
			pred, err := simplify(n.Predicate, ctx)
			if err != nil {
				return nil, err
			}
			// A constant-true filter disappears; constant-false becomes an
			// empty relation.
			if lit, ok := pred.(*logical.Literal); ok && !lit.Value.Null && lit.Value.Type.ID == arrow.BOOL {
				if lit.Value.AsBool() {
					return n.Input, nil
				}
				return &logical.EmptyRelation{SchemaVal: n.Input.Schema()}, nil
			}
			return &logical.Filter{Input: n.Input, Predicate: pred}, nil
		case *logical.Projection:
			exprs := make([]logical.Expr, len(n.Exprs))
			changed := false
			for i, e := range n.Exprs {
				se, err := simplify(e, ctx)
				if err != nil {
					return nil, err
				}
				exprs[i] = se
				if se != e {
					changed = true
				}
			}
			if !changed {
				return p, nil
			}
			return rebuildProjection(n, exprs, ctx)
		}
		return p, nil
	})
}

// rebuildProjection preserves output names while replacing expressions.
func rebuildProjection(n *logical.Projection, exprs []logical.Expr, ctx *Context) (logical.Plan, error) {
	for i, e := range exprs {
		want := n.Schema().Field(i).Name
		if logical.OutputName(e) != want {
			exprs[i] = &logical.Alias{E: e, Name: want}
		}
	}
	return logical.NewProjection(n.Input, exprs, ctx.Reg)
}

// simplify rewrites one expression bottom-up.
func simplify(e logical.Expr, ctx *Context) (logical.Expr, error) {
	return logical.TransformExpr(e, func(x logical.Expr) (logical.Expr, error) {
		switch n := x.(type) {
		case *logical.BinaryExpr:
			if n.Op == logical.OpAnd {
				if b, ok := boolLit(n.L); ok {
					if b {
						return n.R, nil
					}
					return logical.Lit(false), nil
				}
				if b, ok := boolLit(n.R); ok {
					if b {
						return n.L, nil
					}
					return logical.Lit(false), nil
				}
			}
			if n.Op == logical.OpOr {
				if b, ok := boolLit(n.L); ok {
					if b {
						return logical.Lit(true), nil
					}
					return n.R, nil
				}
				if b, ok := boolLit(n.R); ok {
					if b {
						return logical.Lit(true), nil
					}
					return n.L, nil
				}
				// Join predicate extraction (paper Section 6.1): factor
				// conjuncts common to every OR branch out of the
				// disjunction, e.g. (A AND X) OR (A AND Y) => A AND (X OR Y),
				// exposing A (often a join equality) to pushdown.
				if factored := factorCommonConjuncts(n); factored != nil {
					return factored, nil
				}
			}
			return foldIfConstant(x, ctx)
		case *logical.Not:
			if inner, ok := n.E.(*logical.Not); ok {
				return inner.E, nil
			}
			if b, ok := boolLit(n.E); ok {
				return logical.Lit(!b), nil
			}
			// Push NOT into comparisons: NOT (a < b) => a >= b.
			if cmp, ok := n.E.(*logical.BinaryExpr); ok && cmp.Op.IsComparison() {
				return &logical.BinaryExpr{Op: negateCmp(cmp.Op), L: cmp.L, R: cmp.R}, nil
			}
			// NOT EXISTS / NOT IN normalize into their negated forms.
			if ex, ok := n.E.(*logical.Exists); ok {
				return &logical.Exists{Plan: ex.Plan, Raw: ex.Raw, Negated: !ex.Negated}, nil
			}
			if in, ok := n.E.(*logical.InSubquery); ok {
				return &logical.InSubquery{E: in.E, Plan: in.Plan, Raw: in.Raw, Negated: !in.Negated}, nil
			}
			return x, nil
		case *logical.Cast, *logical.Negative:
			return foldIfConstant(x, ctx)
		}
		return x, nil
	})
}

func negateCmp(op logical.BinOp) logical.BinOp {
	switch op {
	case logical.OpEq:
		return logical.OpNeq
	case logical.OpNeq:
		return logical.OpEq
	case logical.OpLt:
		return logical.OpGtEq
	case logical.OpLtEq:
		return logical.OpGt
	case logical.OpGt:
		return logical.OpLtEq
	default:
		return logical.OpLt
	}
}

func boolLit(e logical.Expr) (bool, bool) {
	lit, ok := e.(*logical.Literal)
	if !ok || lit.Value.Null || lit.Value.Type.ID != arrow.BOOL {
		return false, false
	}
	return lit.Value.AsBool(), true
}

// isConstant reports whether an expression contains only literals and
// deterministic operators.
func isConstant(e logical.Expr) bool {
	ok := true
	logical.VisitExpr(e, func(x logical.Expr) bool {
		switch x.(type) {
		case *logical.Literal, *logical.BinaryExpr, *logical.Cast, *logical.Negative,
			*logical.Not, *logical.IsNull, *logical.Case:
			return true
		case *logical.ScalarFunc:
			return true // built-in scalars are deterministic
		default:
			ok = false
			return false
		}
	})
	return ok
}

var emptySchema = logical.NewSchema()

// foldIfConstant evaluates constant expressions to literals by compiling
// and running them against a one-row empty batch.
func foldIfConstant(e logical.Expr, ctx *Context) (logical.Expr, error) {
	if _, already := e.(*logical.Literal); already {
		return e, nil
	}
	if !isConstant(e) {
		return e, nil
	}
	comp := physical.NewCompiler(emptySchema, ctx.Reg)
	pe, err := comp.Compile(e)
	if err != nil {
		return e, nil // non-compilable constants stay as-is
	}
	oneRow := arrow.NewRecordBatchWithRows(arrow.NewSchema(), nil, 1)
	d, err := pe.Evaluate(oneRow, nil)
	if err != nil {
		return e, nil // runtime errors (e.g. div by zero) surface at exec
	}
	var s arrow.Scalar
	if d.IsArray() {
		if d.Array().Len() != 1 {
			return e, nil
		}
		s = d.Array().GetScalar(0)
	} else {
		s = d.ScalarValue()
	}
	return &logical.Literal{Value: s}, nil
}

// splitDisjunction flattens nested ORs.
func splitDisjunction(e logical.Expr) []logical.Expr {
	if b, ok := e.(*logical.BinaryExpr); ok && b.Op == logical.OpOr {
		return append(splitDisjunction(b.L), splitDisjunction(b.R)...)
	}
	return []logical.Expr{e}
}

// factorCommonConjuncts extracts conjuncts present in every disjunct of an
// OR, returning the rewritten expression or nil when nothing factors.
func factorCommonConjuncts(or *logical.BinaryExpr) logical.Expr {
	branches := splitDisjunction(or)
	if len(branches) < 2 {
		return nil
	}
	sets := make([][]logical.Expr, len(branches))
	for i, b := range branches {
		sets[i] = logical.SplitConjunction(b)
	}
	var common []logical.Expr
	for _, cand := range sets[0] {
		inAll := true
		for _, set := range sets[1:] {
			found := false
			for _, c := range set {
				if logical.ExprEqual(c, cand) {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, cand)
		}
	}
	if len(common) == 0 {
		return nil
	}
	isCommon := func(e logical.Expr) bool {
		for _, c := range common {
			if logical.ExprEqual(c, e) {
				return true
			}
		}
		return false
	}
	// Rebuild each branch without the common conjuncts.
	var rest logical.Expr
	for _, set := range sets {
		var remain []logical.Expr
		for _, c := range set {
			if !isCommon(c) {
				remain = append(remain, c)
			}
		}
		branch := logical.And(remain...)
		if branch == nil {
			// One branch reduces to TRUE: the OR adds nothing.
			rest = nil
			break
		}
		if rest == nil {
			rest = branch
		} else {
			rest = &logical.BinaryExpr{Op: logical.OpOr, L: rest, R: branch}
		}
	}
	out := logical.And(common...)
	if rest != nil {
		out = logical.And(out, rest)
	}
	return out
}
