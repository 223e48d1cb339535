package optimizer

import (
	"gofusion/internal/logical"
)

// FilterPushdown moves filter conjuncts toward the data sources (paper
// Sections 6.1 and 6.8): through projections (with substitution), into
// both sides of joins subject to OUTER-join restrictions, converting
// cross joins with equality conjuncts into inner joins, through
// aggregates (group-key predicates), through subquery aliases and unions,
// and finally into TableScan.Filters.
type FilterPushdown struct{}

// Name implements Rule.
func (*FilterPushdown) Name() string { return "filter_pushdown" }

// Apply implements Rule.
func (r *FilterPushdown) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return logical.TransformPlan(plan, func(p logical.Plan) (logical.Plan, error) {
		f, ok := p.(*logical.Filter)
		if !ok {
			return p, nil
		}
		// Merge stacked filters first.
		for {
			inner, ok := f.Input.(*logical.Filter)
			if !ok {
				break
			}
			f = &logical.Filter{Input: inner.Input,
				Predicate: logical.And(f.Predicate, inner.Predicate)}
		}
		return r.push(f, ctx)
	})
}

// resolvable reports whether every column of e resolves in schema.
func resolvable(e logical.Expr, schema *logical.Schema) bool {
	for _, c := range logical.CollectColumns(e) {
		if _, err := schema.IndexOfColumn(c); err != nil {
			return false
		}
	}
	return true
}

func (r *FilterPushdown) push(f *logical.Filter, ctx *Context) (logical.Plan, error) {
	conjuncts := logical.SplitConjunction(f.Predicate)
	// Subquery-bearing conjuncts stay put for the decorrelation rule.
	var pushable, kept []logical.Expr
	for _, c := range conjuncts {
		if logical.HasSubquery(c) || logical.HasAggregates(c) || logical.HasWindow(c) {
			kept = append(kept, c)
		} else {
			pushable = append(pushable, c)
		}
	}
	rebuilt, leftover, err := r.pushInto(f.Input, pushable, ctx)
	if err != nil {
		return nil, err
	}
	remaining := logical.And(append(kept, leftover...)...)
	if remaining == nil {
		return rebuilt, nil
	}
	return &logical.Filter{Input: rebuilt, Predicate: remaining}, nil
}

// pushInto pushes conjuncts into plan, returning the rewritten plan and
// the conjuncts that could not be pushed.
func (r *FilterPushdown) pushInto(plan logical.Plan, conjuncts []logical.Expr, ctx *Context) (logical.Plan, []logical.Expr, error) {
	if len(conjuncts) == 0 {
		return plan, nil, nil
	}
	switch n := plan.(type) {
	case *logical.TableScan:
		out := *n
		out.Filters = append(append([]logical.Expr{}, n.Filters...), conjuncts...)
		return &out, nil, nil

	case *logical.Filter:
		merged := &logical.Filter{Input: n.Input,
			Predicate: logical.And(append(conjuncts, n.Predicate)...)}
		p, err := r.push(merged, ctx)
		return p, nil, err

	case *logical.Projection:
		// Substitute projection expressions into the predicate, then push
		// when the result references only input columns and is
		// deterministic-friendly (no window/agg).
		var pushed, blocked []logical.Expr
		sub := map[string]logical.Expr{}
		for i, e := range n.Exprs {
			sub[n.Schema().Field(i).Name] = stripAliasExpr(e)
		}
		for _, c := range conjuncts {
			replaced, err := substituteColumns(c, sub, n.Input.Schema())
			if err != nil || replaced == nil {
				blocked = append(blocked, c)
				continue
			}
			pushed = append(pushed, replaced)
		}
		if len(pushed) == 0 {
			return plan, conjuncts, nil
		}
		newInput, leftover, err := r.pushInto(n.Input, pushed, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			newInput = &logical.Filter{Input: newInput, Predicate: logical.And(leftover...)}
		}
		proj, err := logical.NewProjection(newInput, n.Exprs, ctx.Reg)
		if err != nil {
			return nil, nil, err
		}
		return proj, blocked, nil

	case *logical.SubqueryAlias:
		// Requalify predicate columns into the child's namespace by
		// positional mapping.
		inner := n.Input.Schema()
		outer := n.Schema()
		var pushed, blocked []logical.Expr
		for _, c := range conjuncts {
			rc, err := logical.TransformExpr(c, func(x logical.Expr) (logical.Expr, error) {
				col, ok := x.(*logical.Column)
				if !ok {
					return x, nil
				}
				i, err := outer.IndexOfColumn(col)
				if err != nil {
					return nil, err
				}
				f := inner.Field(i)
				return &logical.Column{Relation: f.Qualifier, Name: f.Name}, nil
			})
			if err != nil {
				blocked = append(blocked, c)
				continue
			}
			pushed = append(pushed, rc)
		}
		if len(pushed) == 0 {
			return plan, conjuncts, nil
		}
		newInput, leftover, err := r.pushInto(n.Input, pushed, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			newInput = &logical.Filter{Input: newInput, Predicate: logical.And(leftover...)}
		}
		return logical.NewSubqueryAlias(newInput, n.Alias), blocked, nil

	case *logical.Join:
		return r.pushIntoJoin(n, conjuncts, ctx)

	case *logical.Union:
		// Push a copy into every input (schemas are positionally
		// compatible; column names may differ, so requalify by position).
		newInputs := make([]logical.Plan, len(n.Inputs))
		for i, in := range n.Inputs {
			mapped := make([]logical.Expr, 0, len(conjuncts))
			ok := true
			for _, c := range conjuncts {
				rc, err := remapByPosition(c, n.Schema(), in.Schema())
				if err != nil {
					ok = false
					break
				}
				mapped = append(mapped, rc)
			}
			if !ok {
				return plan, conjuncts, nil
			}
			child, leftover, err := r.pushInto(in, mapped, ctx)
			if err != nil {
				return nil, nil, err
			}
			if len(leftover) > 0 {
				child = &logical.Filter{Input: child, Predicate: logical.And(leftover...)}
			}
			newInputs[i] = child
		}
		return &logical.Union{Inputs: newInputs, All: n.All}, nil, nil

	case *logical.Aggregate:
		// Predicates that reference only group keys commute with
		// aggregation.
		groupCols := map[string]bool{}
		for i := range n.GroupExprs {
			groupCols[n.Schema().Field(i).QualifiedName()] = true
			groupCols[n.Schema().Field(i).Name] = true
		}
		var pushed, blocked []logical.Expr
		for _, c := range conjuncts {
			ok := true
			for _, col := range logical.CollectColumns(c) {
				if !groupCols[col.String()] && !groupCols[col.Name] {
					ok = false
					break
				}
			}
			// The pushed predicate references the pre-aggregation columns;
			// group keys that are bare columns keep their names.
			if ok && resolvable(c, n.Input.Schema()) {
				pushed = append(pushed, c)
			} else {
				blocked = append(blocked, c)
			}
		}
		if len(pushed) == 0 {
			return plan, conjuncts, nil
		}
		newInput, leftover, err := r.pushInto(n.Input, pushed, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			newInput = &logical.Filter{Input: newInput, Predicate: logical.And(leftover...)}
		}
		agg, err := logical.NewAggregate(newInput, n.GroupExprs, n.AggExprs, ctx.Reg)
		if err != nil {
			return nil, nil, err
		}
		return agg, blocked, nil

	case *logical.Sort:
		newInput, leftover, err := r.pushInto(n.Input, conjuncts, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			newInput = &logical.Filter{Input: newInput, Predicate: logical.And(leftover...)}
		}
		return &logical.Sort{Input: newInput, Keys: n.Keys, Fetch: n.Fetch}, nil, nil

	case *logical.Distinct:
		newInput, leftover, err := r.pushInto(n.Input, conjuncts, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			newInput = &logical.Filter{Input: newInput, Predicate: logical.And(leftover...)}
		}
		return &logical.Distinct{Input: newInput}, nil, nil
	}
	// Limit, Window, Values, Extension: do not push through.
	return plan, conjuncts, nil
}

// stripAliasExpr unwraps aliases.
func stripAliasExpr(e logical.Expr) logical.Expr {
	if a, ok := e.(*logical.Alias); ok {
		return a.E
	}
	return e
}

// substituteColumns replaces column references with projection
// definitions; returns nil when substitution fails or produces an
// unresolvable expression.
func substituteColumns(e logical.Expr, sub map[string]logical.Expr, inputSchema *logical.Schema) (logical.Expr, error) {
	out, err := logical.TransformExpr(e, func(x logical.Expr) (logical.Expr, error) {
		if col, ok := x.(*logical.Column); ok {
			if def, ok2 := sub[col.Name]; ok2 {
				return def, nil
			}
		}
		return x, nil
	})
	if err != nil {
		return nil, err
	}
	if !resolvable(out, inputSchema) {
		return nil, nil
	}
	return out, nil
}

// remapByPosition rewrites column references resolved against `from` into
// references against `to` (positionally), for Union pushdown.
func remapByPosition(e logical.Expr, from, to *logical.Schema) (logical.Expr, error) {
	return logical.TransformExpr(e, func(x logical.Expr) (logical.Expr, error) {
		col, ok := x.(*logical.Column)
		if !ok {
			return x, nil
		}
		i, err := from.IndexOfColumn(col)
		if err != nil {
			return nil, err
		}
		f := to.Field(i)
		return &logical.Column{Relation: f.Qualifier, Name: f.Name}, nil
	})
}

// pushIntoJoin distributes conjuncts into join inputs, converting cross
// joins to inner joins when equality conjuncts link both sides. A
// disjunction over both sides of an inner join stays the join's filter and
// also lends a side the predicate sidePredicate derives from it, when
// derivationPays.
func (r *FilterPushdown) pushIntoJoin(j *logical.Join, conjuncts []logical.Expr, ctx *Context) (logical.Plan, []logical.Expr, error) {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	var toLeft, toRight []logical.Expr
	var newPairs []logical.EquiPair
	var joinFilters, blocked []logical.Expr

	leftPushable := j.Type == logical.InnerJoin || j.Type == logical.CrossJoin ||
		j.Type == logical.LeftJoin || j.Type == logical.LeftSemiJoin || j.Type == logical.LeftAntiJoin
	rightPushable := j.Type == logical.InnerJoin || j.Type == logical.CrossJoin ||
		j.Type == logical.RightJoin || j.Type == logical.RightSemiJoin || j.Type == logical.RightAntiJoin

	for _, c := range conjuncts {
		onLeft := resolvable(c, ls)
		onRight := resolvable(c, rs)
		switch {
		case onLeft && !onRight && leftPushable:
			toLeft = append(toLeft, c)
		case onRight && !onLeft && rightPushable:
			toRight = append(toRight, c)
		case onLeft && !onRight, onRight && !onLeft:
			// Side not pushable under this join type (e.g. right side of a
			// LEFT join): predicate stays above.
			blocked = append(blocked, c)
		default:
			// References both sides.
			if (j.Type == logical.InnerJoin || j.Type == logical.CrossJoin) && !logical.HasSubquery(c) {
				if be, ok := c.(*logical.BinaryExpr); ok && be.Op == logical.OpEq {
					switch {
					case resolvable(be.L, ls) && resolvable(be.R, rs):
						newPairs = append(newPairs, logical.EquiPair{L: be.L, R: be.R})
						continue
					case resolvable(be.L, rs) && resolvable(be.R, ls):
						newPairs = append(newPairs, logical.EquiPair{L: be.R, R: be.L})
						continue
					}
				}
				joinFilters = append(joinFilters, c)
				if l := sidePredicate(c, ls); l != nil && derivationPays(j.Left, l, j.Right) {
					toLeft = append(toLeft, l)
				}
				if r := sidePredicate(c, rs); r != nil && derivationPays(j.Right, r, j.Left) {
					toRight = append(toRight, r)
				}
				continue
			}
			blocked = append(blocked, c)
		}
	}

	newLeft := j.Left
	if len(toLeft) > 0 {
		nl, leftover, err := r.pushInto(j.Left, toLeft, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			nl = &logical.Filter{Input: nl, Predicate: logical.And(leftover...)}
		}
		newLeft = nl
	}
	newRight := j.Right
	if len(toRight) > 0 {
		nr, leftover, err := r.pushInto(j.Right, toRight, ctx)
		if err != nil {
			return nil, nil, err
		}
		if len(leftover) > 0 {
			nr = &logical.Filter{Input: nr, Predicate: logical.And(leftover...)}
		}
		newRight = nr
	}

	jt := j.Type
	on := append(append([]logical.EquiPair{}, j.On...), newPairs...)
	filter := j.Filter
	for _, jf := range joinFilters {
		filter = logical.And(filter, jf)
	}
	if jt == logical.CrossJoin && (len(on) > 0 || filter != nil) {
		jt = logical.InnerJoin
	}
	return logical.NewJoin(newLeft, newRight, jt, on, filter), blocked, nil
}

// sidePredicate derives from a disjunction a predicate over schema alone:
// the OR over its branches of each branch's conjuncts that schema
// resolves, or nil when some branch has none. For q7's (n1.n_name = 'FRANCE'
// AND n2.n_name = 'GERMANY') OR (n1.n_name = 'GERMANY' AND n2.n_name =
// 'FRANCE') it is n1.n_name = 'FRANCE' OR n1.n_name = 'GERMANY' for n1. The
// derived predicate is TRUE whenever the disjunction is, NULLs included: a
// TRUE disjunction has a TRUE branch, and every conjunct of that branch is
// TRUE. It may keep rows the disjunction drops, so the disjunction stays.
func sidePredicate(c logical.Expr, schema *logical.Schema) logical.Expr {
	if be, ok := c.(*logical.BinaryExpr); !ok || be.Op != logical.OpOr {
		return nil
	}
	var out logical.Expr
	for _, branch := range splitDisjunction(c) {
		var side []logical.Expr
		for _, x := range logical.SplitConjunction(branch) {
			if resolvable(x, schema) {
				side = append(side, x)
			}
		}
		if len(side) == 0 {
			return nil
		}
		if out == nil {
			out = logical.And(side...)
		} else {
			out = &logical.BinaryExpr{Op: logical.OpOr, L: out, R: logical.And(side...)}
		}
	}
	return out
}

// derivationPays reports whether a predicate derived for side is worth
// evaluating: the input of side it lands on (joins are descended into the
// child holding its columns) is estimated no larger than the join's other
// input. There it shrinks a likely build side for the cost of one pass
// over few rows. On a larger input it would be a pass over every probe row
// to save join work the disjunction prunes anyway: q19's lineitem range
// test costs more than it saves, its part test cuts the build to a few
// rows.
func derivationPays(side logical.Plan, pred logical.Expr, other logical.Plan) bool {
	for j, ok := side.(*logical.Join); ok; j, ok = side.(*logical.Join) {
		if resolvable(pred, j.Left.Schema()) {
			side = j.Left
		} else if resolvable(pred, j.Right.Schema()) {
			side = j.Right
		} else {
			break
		}
	}
	at, o := EstimateRows(side), EstimateRows(other)
	return at >= 0 && o >= 0 && at <= o
}
