package optimizer

import (
	"fmt"
	"sync/atomic"

	"gofusion/internal/logical"
)

// DecorrelateSubqueries rewrites subquery expressions into joins (paper
// Section 6.1: "correlated subquery flattening"):
//
//   - [NOT] EXISTS (sub)        -> left semi/anti join on extracted
//     correlation predicates;
//   - e [NOT] IN (sub)          -> left semi/anti join on e = sub.col
//     plus extracted correlation;
//   - e <op> (scalar agg sub)   -> join against the subquery re-grouped
//     by its correlation keys (inner join; the comparison is strict), or
//     a cross join for uncorrelated scalars.
type DecorrelateSubqueries struct{}

// Name implements Rule.
func (*DecorrelateSubqueries) Name() string { return "decorrelate_subqueries" }

// sqCounter generates unique subquery aliases across nesting levels.
var sqCounter atomic.Int64

// Apply implements Rule.
func (r *DecorrelateSubqueries) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return logical.TransformPlan(plan, func(p logical.Plan) (logical.Plan, error) {
		f, ok := p.(*logical.Filter)
		if !ok {
			return p, nil
		}
		input := f.Input
		var remaining []logical.Expr
		changed := false
		for _, conj := range logical.SplitConjunction(f.Predicate) {
			if !logical.HasSubquery(conj) {
				remaining = append(remaining, conj)
				continue
			}
			newInput, leftoverConj, err := r.rewriteConjunct(input, conj, ctx)
			if err != nil {
				return nil, err
			}
			input = newInput
			if leftoverConj != nil {
				remaining = append(remaining, leftoverConj)
			}
			changed = true
		}
		if !changed {
			return p, nil
		}
		if pred := logical.And(remaining...); pred != nil {
			return &logical.Filter{Input: input, Predicate: pred}, nil
		}
		return input, nil
	})
}

// corrPair is one extracted correlation equality: outer expr = inner expr.
type corrPair struct {
	outer logical.Expr
	inner logical.Expr
}

// extractCorrelation removes correlated conjuncts from Filter nodes in the
// subquery plan, returning the cleaned plan, equality pairs, and other
// correlated predicates.
func extractCorrelation(plan logical.Plan, ctx *Context) (logical.Plan, []corrPair, []logical.Expr, error) {
	switch n := plan.(type) {
	case *logical.Filter:
		newInput, pairs, others, err := extractCorrelation(n.Input, ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		schema := newInput.Schema()
		var kept []logical.Expr
		for _, c := range logical.SplitConjunction(n.Predicate) {
			if resolvable(c, schema) {
				kept = append(kept, c)
				continue
			}
			// Correlated conjunct.
			if be, ok := c.(*logical.BinaryExpr); ok && be.Op == logical.OpEq {
				switch {
				case resolvable(be.L, schema) && !resolvable(be.R, schema):
					pairs = append(pairs, corrPair{outer: be.R, inner: be.L})
					continue
				case resolvable(be.R, schema) && !resolvable(be.L, schema):
					pairs = append(pairs, corrPair{outer: be.L, inner: be.R})
					continue
				}
			}
			others = append(others, c)
		}
		out := newInput
		if pred := logical.And(kept...); pred != nil {
			out = &logical.Filter{Input: newInput, Predicate: pred}
		}
		return out, pairs, others, nil
	case *logical.Projection:
		newInput, pairs, others, err := extractCorrelation(n.Input, ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(pairs) == 0 && len(others) == 0 {
			return plan, nil, nil, nil
		}
		// The join that replaces the subquery reads the inner side of every
		// extracted predicate above this projection: keep those columns.
		exprs := append([]logical.Expr{}, n.Exprs...)
		var inner []logical.Expr
		for _, pr := range pairs {
			inner = append(inner, pr.inner)
		}
		kept := map[string]bool{}
		for _, e := range append(inner, others...) {
			for _, col := range logical.CollectColumns(e) {
				if resolvable(col, newInput.Schema()) && !resolvable(col, n.Schema()) && !kept[col.String()] {
					kept[col.String()] = true
					exprs = append(exprs, col)
				}
			}
		}
		proj, err := logical.NewProjection(newInput, exprs, ctx.Reg)
		if err != nil {
			return nil, nil, nil, err
		}
		return proj, pairs, others, nil
	case *logical.SubqueryAlias, *logical.Aggregate,
		*logical.Sort, *logical.Distinct, *logical.Limit:
		children := plan.Children()
		newChild, pairs, others, err := extractCorrelation(children[0], ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		if newChild == children[0] {
			return plan, pairs, others, nil
		}
		if len(pairs) == 0 && len(others) == 0 {
			return plan, nil, nil, nil
		}
		// Rebuilding typed nodes (Projection/Aggregate) requires schema
		// recomputation, but removing filter conjuncts never changes
		// schemas, so WithChildren is safe.
		return plan.WithChildren([]logical.Plan{newChild}), pairs, others, nil
	case *logical.Join:
		newLeft, lp, lo, err := extractCorrelation(n.Left, ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		newRight, rp, ro, err := extractCorrelation(n.Right, ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		pairs := append(lp, rp...)
		others := append(lo, ro...)
		if newLeft == n.Left && newRight == n.Right {
			return plan, pairs, others, nil
		}
		return logical.NewJoin(newLeft, newRight, n.Type, n.On, n.Filter), pairs, others, nil
	default:
		return plan, nil, nil, nil
	}
}

// stripRootProjection removes a top-level projection/sort/limit wrapper
// from an EXISTS subquery (its output is irrelevant).
func stripRootProjection(plan logical.Plan) logical.Plan {
	for {
		switch n := plan.(type) {
		case *logical.Projection:
			// Keep projections computing aggregates etc. only if input
			// schema would lose required columns; for EXISTS the input
			// always suffices.
			plan = n.Input
		case *logical.Sort:
			plan = n.Input
		case *logical.SubqueryAlias:
			return plan
		default:
			return plan
		}
	}
}

// rewriteConjunct rewrites one subquery-bearing conjunct, returning the
// new input plan and the residual predicate (or nil).
func (r *DecorrelateSubqueries) rewriteConjunct(input logical.Plan, conj logical.Expr, ctx *Context) (logical.Plan, logical.Expr, error) {
	// Subqueries may themselves contain subqueries (e.g. TPC-H Q20):
	// decorrelate each nested plan before flattening this level.
	var derr error
	conj, _ = logical.TransformExpr(conj, func(x logical.Expr) (logical.Expr, error) {
		if derr != nil {
			return x, nil
		}
		switch sq := x.(type) {
		case *logical.ScalarSubquery:
			if sq.Plan != nil {
				np, err := r.Apply(sq.Plan, ctx)
				if err != nil {
					derr = err
					return x, nil
				}
				return &logical.ScalarSubquery{Plan: np}, nil
			}
		case *logical.Exists:
			if sq.Plan != nil {
				np, err := r.Apply(sq.Plan, ctx)
				if err != nil {
					derr = err
					return x, nil
				}
				return &logical.Exists{Plan: np, Negated: sq.Negated}, nil
			}
		case *logical.InSubquery:
			if sq.Plan != nil {
				np, err := r.Apply(sq.Plan, ctx)
				if err != nil {
					derr = err
					return x, nil
				}
				return &logical.InSubquery{E: sq.E, Plan: np, Negated: sq.Negated}, nil
			}
		}
		return x, nil
	})
	if derr != nil {
		return nil, nil, derr
	}
	switch e := conj.(type) {
	case *logical.Exists:
		sub := stripRootProjection(e.Plan)
		cleaned, pairs, others, err := extractCorrelation(sub, ctx)
		if err != nil {
			return nil, nil, err
		}
		jt := logical.LeftSemiJoin
		if e.Negated {
			jt = logical.LeftAntiJoin
		}
		on := make([]logical.EquiPair, len(pairs))
		for i, pr := range pairs {
			on[i] = logical.EquiPair{L: pr.outer, R: pr.inner}
		}
		return logical.NewJoin(input, cleaned, jt, on, logical.And(others...)), nil, nil

	case *logical.InSubquery:
		sub := e.Plan
		cleaned, pairs, others, err := extractCorrelation(sub, ctx)
		if err != nil {
			return nil, nil, err
		}
		if cleaned.Schema().Len() < 1 {
			return nil, nil, fmt.Errorf("optimizer: IN subquery must produce one column")
		}
		f0 := cleaned.Schema().Field(0)
		y := &logical.Column{Relation: f0.Qualifier, Name: f0.Name}
		var on []logical.EquiPair
		for _, pr := range pairs {
			on = append(on, logical.EquiPair{L: pr.outer, R: pr.inner})
		}
		if e.Negated && (f0.Nullable || logical.NullableOf(e.E, input.Schema())) {
			return r.planNullAwareNotIn(input, cleaned, e.E, y, on, others, ctx)
		}
		jt := logical.LeftSemiJoin
		if e.Negated {
			jt = logical.LeftAntiJoin
		}
		on = append([]logical.EquiPair{{L: e.E, R: y}}, on...)
		return logical.NewJoin(input, cleaned, jt, on, logical.And(others...)), nil, nil

	case *logical.BinaryExpr:
		// Comparison with a scalar subquery on one side.
		var sq *logical.ScalarSubquery
		if s, ok := e.L.(*logical.ScalarSubquery); ok {
			sq = s
		}
		if s, ok := e.R.(*logical.ScalarSubquery); ok {
			if sq != nil {
				return nil, nil, fmt.Errorf("optimizer: comparisons between two subqueries are unsupported")
			}
			sq = s
		}
		if sq == nil {
			break
		}
		alias := fmt.Sprintf("__sq_%d", sqCounter.Add(1))
		newInput, valueCol, err := r.planScalarJoin(input, sq.Plan, alias, ctx)
		if err != nil {
			return nil, nil, err
		}
		replaced, err := logical.TransformExpr(conj, func(x logical.Expr) (logical.Expr, error) {
			if x == sq {
				return valueCol, nil
			}
			return x, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return newInput, replaced, nil
	}
	return nil, nil, fmt.Errorf("optimizer: unsupported subquery shape in %s", conj)
}

// planNullAwareNotIn plans x NOT IN (SELECT y ...) when x or y may be
// NULL. A row survives only if no y of its subquery rows equals x, and,
// when there are any such rows, x is not NULL and none of them is NULL
// (then the IN is NULL, not FALSE). Put together: no subquery row has
// x = y, x IS NULL or y IS NULL.
//
// Correlated, that is one anti join on the correlation keys with that
// disjunction as its filter. Uncorrelated, the disjunction would leave the
// anti join without keys, so it keeps x = y as its key, and the NULL cases
// read count(*) and count(y) over the subquery from a one-row cross join:
// the row survives when count(*) = 0 or (x IS NOT NULL and count(y) =
// count(*)).
func (r *DecorrelateSubqueries) planNullAwareNotIn(input, sub logical.Plan, x, y logical.Expr,
	corr []logical.EquiPair, others []logical.Expr, ctx *Context) (logical.Plan, logical.Expr, error) {
	if len(corr) > 0 || len(others) > 0 {
		blocks := &logical.BinaryExpr{Op: logical.OpOr,
			L: &logical.BinaryExpr{Op: logical.OpOr, L: logical.Eq(x, y), R: &logical.IsNull{E: x}},
			R: &logical.IsNull{E: y}}
		filter := logical.And(append([]logical.Expr{blocks}, others...)...)
		return logical.NewJoin(input, sub, logical.LeftAntiJoin, corr, filter), nil, nil
	}
	counts, err := logical.NewAggregate(sub, nil,
		[]logical.Expr{&logical.AggFunc{Name: "count"}, &logical.AggFunc{Name: "count", Args: []logical.Expr{y}}}, ctx.Reg)
	if err != nil {
		return nil, nil, err
	}
	alias := fmt.Sprintf("__sq_%d", sqCounter.Add(1))
	aliased := logical.NewSubqueryAlias(counts, alias)
	rows := &logical.Column{Relation: alias, Name: aliased.Schema().Field(0).Name}
	nonNull := &logical.Column{Relation: alias, Name: aliased.Schema().Field(1).Name}
	withCounts := logical.NewJoin(input, aliased, logical.CrossJoin, nil, nil)
	anti := logical.NewJoin(withCounts, sub, logical.LeftAntiJoin, []logical.EquiPair{{L: x, R: y}}, nil)
	keep := &logical.BinaryExpr{Op: logical.OpOr,
		L: logical.Eq(rows, logical.Lit(0)),
		R: logical.And(&logical.IsNull{E: x, Negated: true}, logical.Eq(nonNull, rows))}
	return anti, keep, nil
}

// planScalarJoin joins input with a scalar subquery, returning the new
// plan and the column holding the scalar value.
func (r *DecorrelateSubqueries) planScalarJoin(input logical.Plan, sub logical.Plan, alias string, ctx *Context) (logical.Plan, *logical.Column, error) {
	// Correlated aggregate shape: Projection(Aggregate(groups=[])).
	if proj, ok := sub.(*logical.Projection); ok {
		if agg, ok2 := proj.Input.(*logical.Aggregate); ok2 && len(agg.GroupExprs) == 0 {
			cleaned, pairs, others, err := extractCorrelation(agg.Input, ctx)
			if err != nil {
				return nil, nil, err
			}
			if len(others) > 0 {
				return nil, nil, fmt.Errorf("optimizer: non-equality correlation under aggregate is unsupported")
			}
			if len(pairs) > 0 {
				// Re-group the aggregate by the inner correlation keys.
				innerKeys := make([]logical.Expr, len(pairs))
				for i, pr := range pairs {
					innerKeys[i] = pr.inner
				}
				newAgg, err := logical.NewAggregate(cleaned, innerKeys, agg.AggExprs, ctx.Reg)
				if err != nil {
					return nil, nil, err
				}
				// Project: original scalar expression plus the group keys.
				exprs := append([]logical.Expr{}, proj.Exprs...)
				keyNames := make([]string, len(pairs))
				for i := range pairs {
					f := newAgg.Schema().Field(i)
					keyNames[i] = f.Name
					exprs = append(exprs, &logical.Column{Relation: f.Qualifier, Name: f.Name})
				}
				newProj, err := logical.NewProjection(newAgg, exprs, ctx.Reg)
				if err != nil {
					return nil, nil, err
				}
				aliased := logical.NewSubqueryAlias(newProj, alias)
				on := make([]logical.EquiPair, len(pairs))
				for i, pr := range pairs {
					on[i] = logical.EquiPair{
						L: pr.outer,
						R: &logical.Column{Relation: alias, Name: keyNames[i]},
					}
				}
				join := logical.NewJoin(input, aliased, logical.InnerJoin, on, nil)
				value := &logical.Column{Relation: alias, Name: aliased.Schema().Field(0).Name}
				return join, value, nil
			}
		}
	}
	// Uncorrelated scalar: cross join the (single-row) subquery.
	cleaned, pairs, others, err := extractCorrelation(sub, ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(pairs) > 0 || len(others) > 0 {
		return nil, nil, fmt.Errorf("optimizer: unsupported correlated scalar subquery shape")
	}
	if cleaned.Schema().Len() < 1 {
		return nil, nil, fmt.Errorf("optimizer: scalar subquery must produce one column")
	}
	aliased := logical.NewSubqueryAlias(cleaned, alias)
	join := logical.NewJoin(input, aliased, logical.CrossJoin, nil, nil)
	value := &logical.Column{Relation: alias, Name: aliased.Schema().Field(0).Name}
	return join, value, nil
}
