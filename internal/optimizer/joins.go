package optimizer

import (
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
)

// OuterToInner converts outer joins to inner joins when a filter above
// them rejects NULLs from the padded side (paper Section 6.1:
// "outer-to-inner join conversion").
type OuterToInner struct{}

// Name implements Rule.
func (*OuterToInner) Name() string { return "outer_to_inner" }

// Apply implements Rule.
func (r *OuterToInner) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return logical.TransformPlan(plan, func(p logical.Plan) (logical.Plan, error) {
		f, ok := p.(*logical.Filter)
		if !ok {
			return p, nil
		}
		j, ok := f.Input.(*logical.Join)
		if !ok {
			return p, nil
		}
		jt := j.Type
		for _, c := range logical.SplitConjunction(f.Predicate) {
			if (jt == logical.LeftJoin || jt == logical.FullJoin) && nullRejecting(c, j.Right.Schema()) {
				if jt == logical.LeftJoin {
					jt = logical.InnerJoin
				} else {
					jt = logical.LeftJoin
				}
			}
			if (jt == logical.RightJoin || jt == logical.FullJoin) && nullRejecting(c, j.Left.Schema()) {
				if jt == logical.RightJoin {
					jt = logical.InnerJoin
				} else {
					jt = logical.RightJoin
				}
			}
		}
		if jt == j.Type {
			return p, nil
		}
		return &logical.Filter{
			Input:     logical.NewJoin(j.Left, j.Right, jt, j.On, j.Filter),
			Predicate: f.Predicate,
		}, nil
	})
}

// nullRejecting conservatively reports whether the predicate evaluates to
// NULL or FALSE whenever all columns from schema are NULL: comparisons,
// LIKE, IN, BETWEEN, and IS NOT NULL over a column of the schema qualify.
func nullRejecting(e logical.Expr, schema *logical.Schema) bool {
	refsSide := false
	for _, c := range logical.CollectColumns(e) {
		if _, err := schema.IndexOfColumn(c); err == nil {
			refsSide = true
			break
		}
	}
	if !refsSide {
		return false
	}
	switch x := e.(type) {
	case *logical.BinaryExpr:
		return x.Op.IsComparison() || x.Op.IsArithmetic()
	case *logical.Like, *logical.InList, *logical.Between:
		return true
	case *logical.IsNull:
		return x.Negated
	}
	return false
}

// JoinInputSwap puts the estimated-smaller input on the build (left) side
// of inner joins (paper Section 6.4: "heuristically reorders joins based
// on statistics").
type JoinInputSwap struct{}

// Name implements Rule.
func (*JoinInputSwap) Name() string { return "join_input_swap" }

// Apply implements Rule.
func (r *JoinInputSwap) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return logical.TransformPlan(plan, func(p logical.Plan) (logical.Plan, error) {
		j, ok := p.(*logical.Join)
		if !ok || j.Type != logical.InnerJoin || len(j.On) == 0 {
			return p, nil
		}
		lrows := EstimateRows(j.Left)
		rrows := EstimateRows(j.Right)
		if lrows < 0 || rrows < 0 || lrows <= rrows {
			return p, nil
		}
		// Swap: build from the smaller side. Column order changes, so wrap
		// in a projection restoring the original schema.
		on := make([]logical.EquiPair, len(j.On))
		for i, pair := range j.On {
			on[i] = logical.EquiPair{L: pair.R, R: pair.L}
		}
		swapped := logical.NewJoin(j.Right, j.Left, logical.InnerJoin, on, j.Filter)
		exprs := make([]logical.Expr, j.Schema().Len())
		for i, f := range j.Schema().Fields() {
			exprs[i] = &logical.Column{Relation: f.Qualifier, Name: f.Name}
		}
		return logical.NewProjection(swapped, exprs, ctx.Reg)
	})
}

// EstimateRows is a crude cardinality estimator used by heuristic rules;
// -1 means unknown.
func EstimateRows(p logical.Plan) int64 {
	switch n := p.(type) {
	case *logical.TableScan:
		if prov, ok := n.Source.(catalog.TableProvider); ok {
			rows := prov.Statistics().NumRows
			if rows < 0 {
				return -1
			}
			for range n.Filters {
				rows = rows / 5
			}
			return rows
		}
		return -1
	case *logical.Filter:
		in := EstimateRows(n.Input)
		if in < 0 {
			return -1
		}
		return in / 5
	case *logical.Projection:
		return EstimateRows(n.Input)
	case *logical.SubqueryAlias:
		return EstimateRows(n.Input)
	case *logical.Limit:
		in := EstimateRows(n.Input)
		if n.Fetch >= 0 && (in < 0 || n.Fetch < in) {
			return n.Fetch
		}
		return in
	case *logical.Sort:
		return EstimateRows(n.Input)
	case *logical.Aggregate:
		in := EstimateRows(n.Input)
		if in < 0 {
			return -1
		}
		if len(n.GroupExprs) == 0 {
			return 1
		}
		est := in / 10
		if est < 1 {
			est = 1
		}
		return est
	case *logical.Distinct:
		in := EstimateRows(n.Input)
		if in < 0 {
			return -1
		}
		return in / 2
	case *logical.Join:
		l, r := EstimateRows(n.Left), EstimateRows(n.Right)
		if l < 0 || r < 0 {
			return -1
		}
		switch n.Type {
		case logical.LeftSemiJoin, logical.LeftAntiJoin:
			return l / 2
		case logical.RightSemiJoin, logical.RightAntiJoin:
			return r / 2
		case logical.CrossJoin:
			return l * r
		default:
			if l > r {
				return l
			}
			return r
		}
	case *logical.Union:
		var total int64
		for _, in := range n.Inputs {
			e := EstimateRows(in)
			if e < 0 {
				return -1
			}
			total += e
		}
		return total
	case *logical.Values:
		return int64(len(n.Rows))
	case *logical.EmptyRelation:
		if n.ProduceOneRow {
			return 1
		}
		return 0
	}
	return -1
}

// LimitPushdown moves limits toward sources: Limit over Sort becomes a
// Top-K sort; Limit over Projection commutes; Limit over a bare scan sets
// the scan's fetch count.
type LimitPushdown struct{}

// Name implements Rule.
func (*LimitPushdown) Name() string { return "limit_pushdown" }

// Apply implements Rule.
func (r *LimitPushdown) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return logical.TransformPlan(plan, func(p logical.Plan) (logical.Plan, error) {
		if l, ok := p.(*logical.Limit); ok {
			return pushLimit(l, ctx)
		}
		return p, nil
	})
}

// pushLimit rewrites one Limit. The bottom-up walk has already passed
// below it, so a Limit it pushes below a Projection is rewritten here too:
// that is what lets ORDER BY on a column the SELECT list drops reach the
// Sort as a top-k.
func pushLimit(l *logical.Limit, ctx *Context) (logical.Plan, error) {
	if l.Fetch < 0 {
		return l, nil
	}
	reach := l.Skip + l.Fetch
	switch inner := l.Input.(type) {
	case *logical.Sort:
		if inner.Fetch < 0 || inner.Fetch > reach {
			s := &logical.Sort{Input: inner.Input, Keys: inner.Keys, Fetch: reach}
			return &logical.Limit{Input: s, Skip: l.Skip, Fetch: l.Fetch}, nil
		}
	case *logical.Projection:
		pushed, err := pushLimit(&logical.Limit{Input: inner.Input, Skip: l.Skip, Fetch: l.Fetch}, ctx)
		if err != nil {
			return nil, err
		}
		proj, err := logical.NewProjection(pushed, inner.Exprs, ctx.Reg)
		if err != nil {
			return nil, err
		}
		return proj, nil
	case *logical.TableScan:
		if len(inner.Filters) == 0 && l.Skip == 0 {
			out := *inner
			if out.Fetch < 0 || out.Fetch > reach {
				out.Fetch = reach
			}
			return &logical.Limit{Input: &out, Skip: l.Skip, Fetch: l.Fetch}, nil
		}
	}
	return l, nil
}
