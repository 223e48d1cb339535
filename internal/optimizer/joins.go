package optimizer

import (
	"strings"

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

// JoinOrder orders joins by the join graph and builds each on its smaller
// side (paper Section 6.4: "heuristically reorders joins based on
// statistics"; Section 6.1: cross joins become inner joins).
//
// A region is a maximal tree of inner and cross joins. Its inputs are
// re-joined left-deep in FROM order, except that an input sharing no
// equality with the inputs already joined waits for the first later one
// that does (DataFusion's EliminateCrossJoin); inputs no equality links
// to anything are cross-joined last. Each conjunct of the region lands on
// the lowest join that sees all of its columns. A join whose left (build)
// estimate is larger than its right swaps inputs, and one projection over
// the region restores its column order. A left semi or
// anti join whose left estimate is larger becomes the right-hand join over
// swapped inputs. An unknown estimate (-1, e.g. an unsealed stream) never
// swaps, and a region with such an input keeps FROM order: an unbounded
// input must not become a build side.
type JoinOrder struct{}

// Name implements Rule.
func (*JoinOrder) Name() string { return "join_order" }

// Apply implements Rule.
func (r *JoinOrder) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return orderJoins(plan, ctx)
}

// orderJoins rewrites top-down, so that a region is flattened before any
// of its joins is rebuilt.
func orderJoins(p logical.Plan, ctx *Context) (logical.Plan, error) {
	if j, ok := p.(*logical.Join); ok && isRegionJoin(j) {
		if rg, ok := flattenRegion(j); ok {
			for i, in := range rg.inputs {
				out, err := orderJoins(in, ctx)
				if err != nil {
					return nil, err
				}
				rg.inputs[i] = out
			}
			return rg.build(j.Schema(), ctx)
		}
	}
	children := p.Children()
	if len(children) == 0 {
		return p, nil
	}
	newChildren := make([]logical.Plan, len(children))
	changed := false
	for i, c := range children {
		nc, err := orderJoins(c, ctx)
		if err != nil {
			return nil, err
		}
		newChildren[i] = nc
		changed = changed || nc != c
	}
	if changed {
		p = p.WithChildren(newChildren)
	}
	if j, ok := p.(*logical.Join); ok {
		return swapSemiAnti(j), nil
	}
	return p, nil
}

func isRegionJoin(j *logical.Join) bool {
	return j.Type == logical.InnerJoin || j.Type == logical.CrossJoin
}

// region is a flattened tree of inner and cross joins.
type region struct {
	inputs    []logical.Plan // in FROM order
	conjuncts []*regionConjunct
}

// regionConjunct is one conjunct of a region with the inputs it reads, as
// bitsets over region.inputs. An equality whose two sides read disjoint
// inputs also keeps its sides: it links those inputs.
type regionConjunct struct {
	e            logical.Expr
	refs         uint64
	l, r         logical.Expr
	lrefs, rrefs uint64
}

// flattenRegion splits a region into its inputs and conjuncts. It declines
// (false) when conjunct columns cannot be attributed to the inputs that
// hold them: more than 64 inputs, a column name that is ambiguous over
// the region's output, or one that does not resolve where it was written.
func flattenRegion(root *logical.Join) (*region, bool) {
	whole := root.Schema()
	if hasDuplicateFields(whole) {
		return nil, false
	}
	rg := &region{}
	var exprs []logical.Expr
	ok := true
	var walk func(p logical.Plan)
	walk = func(p logical.Plan) {
		j, isJoin := p.(*logical.Join)
		if !isJoin || !isRegionJoin(j) {
			rg.inputs = append(rg.inputs, p)
			return
		}
		walk(j.Left)
		walk(j.Right)
		for _, pair := range j.On {
			l, lok := pinColumns(pair.L, j.Left.Schema(), whole)
			r, rok := pinColumns(pair.R, j.Right.Schema(), whole)
			ok = ok && lok && rok
			exprs = append(exprs, logical.Eq(l, r))
		}
		if j.Filter != nil {
			for _, c := range logical.SplitConjunction(j.Filter) {
				c, cok := pinColumns(c, j.Schema(), whole)
				ok = ok && cok
				exprs = append(exprs, c)
			}
		}
	}
	walk(root)
	if !ok || len(rg.inputs) > 64 {
		return nil, false
	}
	for _, e := range exprs {
		c := &regionConjunct{e: e, refs: rg.refsOf(e)}
		if be, isEq := e.(*logical.BinaryExpr); isEq && be.Op == logical.OpEq {
			lrefs, rrefs := rg.refsOf(be.L), rg.refsOf(be.R)
			if lrefs != 0 && rrefs != 0 && lrefs&rrefs == 0 {
				c.l, c.r, c.lrefs, c.rrefs = be.L, be.R, lrefs, rrefs
			}
		}
		rg.conjuncts = append(rg.conjuncts, c)
	}
	return rg, true
}

// pinColumns rewrites each column of e whose name is ambiguous over the
// whole region to the field it names in scope, where e was written (an
// unqualified ps_partkey below a decorrelated subquery exposing its own
// ps_partkey); false when a column resolves in neither.
func pinColumns(e logical.Expr, scope, whole *logical.Schema) (logical.Expr, bool) {
	ok := true
	out, _ := logical.TransformExpr(e, func(x logical.Expr) (logical.Expr, error) {
		col, isCol := x.(*logical.Column)
		if !isCol {
			return x, nil
		}
		if _, err := whole.IndexOfColumn(col); err == nil {
			return x, nil
		}
		i, err := scope.IndexOfColumn(col)
		if err != nil {
			ok = false
			return x, nil
		}
		f := scope.Field(i)
		return &logical.Column{Relation: f.Qualifier, Name: f.Name}, nil
	})
	return out, ok
}

// hasDuplicateFields reports whether a column of s cannot be named
// unambiguously: two fields share a qualified name, or an unqualified
// field shares its name with another.
func hasDuplicateFields(s *logical.Schema) bool {
	qualified := make(map[string]bool, s.Len())
	names := make(map[string]int, s.Len())
	for _, f := range s.Fields() {
		key := strings.ToLower(f.QualifiedName())
		if qualified[key] {
			return true
		}
		qualified[key] = true
		names[strings.ToLower(f.Name)]++
	}
	for _, f := range s.Fields() {
		if f.Qualifier == "" && names[strings.ToLower(f.Name)] > 1 {
			return true
		}
	}
	return false
}

// refsOf returns the inputs e's columns resolve in. After pinColumns and
// hasDuplicateFields each column resolves in exactly one.
func (rg *region) refsOf(e logical.Expr) uint64 {
	var refs uint64
	for _, col := range logical.CollectColumns(e) {
		for i, p := range rg.inputs {
			if _, err := p.Schema().IndexOfColumn(col); err == nil {
				refs |= 1 << i
			}
		}
	}
	return refs
}

// linked reports whether an equality joins input i to the inputs in joined.
func (rg *region) linked(i int, joined uint64) bool {
	bit := uint64(1) << i
	for _, c := range rg.conjuncts {
		if c.l != nil && (c.lrefs&^joined == 0 && c.rrefs == bit || c.rrefs&^joined == 0 && c.lrefs == bit) {
			return true
		}
	}
	return false
}

// order returns the join order of the region's inputs. A region with an
// input of unknown size (an unsealed stream) keeps FROM order: every input
// of a left-deep tree but the last is on a build side, so reordering could
// move an unbounded input there.
func (rg *region) order() []int {
	order := make([]int, 0, len(rg.inputs))
	for _, in := range rg.inputs {
		if EstimateRows(in) < 0 {
			for i := range rg.inputs {
				order = append(order, i)
			}
			return order
		}
	}
	var pending, isolated []int
	var linkedAny uint64
	for _, c := range rg.conjuncts {
		if c.l != nil {
			linkedAny |= c.lrefs | c.rrefs
		}
	}
	for i := range rg.inputs {
		if linkedAny&(1<<i) != 0 {
			pending = append(pending, i)
		} else {
			isolated = append(isolated, i)
		}
	}
	var joined uint64
	for len(pending) > 0 {
		pick := 0
		for k, i := range pending {
			if rg.linked(i, joined) {
				pick = k
				break
			}
		}
		i := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		order = append(order, i)
		joined |= 1 << i
	}
	return append(order, isolated...)
}

// build re-joins the region left-deep in order(), placing each conjunct on
// the lowest join that covers it, and restores the region's schema.
func (rg *region) build(schema *logical.Schema, ctx *Context) (logical.Plan, error) {
	order := rg.order()
	placed := make([]bool, len(rg.conjuncts))
	cur := rg.inputs[order[0]]
	joined := uint64(1) << order[0]
	for _, i := range order[1:] {
		bit := uint64(1) << i
		var on []logical.EquiPair
		var filters []logical.Expr
		for k, c := range rg.conjuncts {
			if placed[k] || c.refs&^(joined|bit) != 0 {
				continue
			}
			placed[k] = true
			switch {
			case c.l != nil && c.lrefs&^joined == 0 && c.rrefs == bit:
				on = append(on, logical.EquiPair{L: c.l, R: c.r})
			case c.l != nil && c.rrefs&^joined == 0 && c.lrefs == bit:
				on = append(on, logical.EquiPair{L: c.r, R: c.l})
			default:
				filters = append(filters, c.e)
			}
		}
		cur = buildOnSmallerSide(cur, rg.inputs[i], on, logical.And(filters...))
		joined |= bit
	}
	if cur.Schema().String() == schema.String() {
		return cur, nil
	}
	exprs := make([]logical.Expr, schema.Len())
	for i, f := range schema.Fields() {
		exprs[i] = &logical.Column{Relation: f.Qualifier, Name: f.Name}
	}
	return logical.NewProjection(cur, exprs, ctx.Reg)
}

// buildOnSmallerSide joins left and right with the smaller estimated input
// on the build (left) side. A nested-loop join buffers its left input too.
func buildOnSmallerSide(left, right logical.Plan, on []logical.EquiPair, filter logical.Expr) logical.Plan {
	jt := logical.InnerJoin
	if len(on) == 0 && filter == nil {
		jt = logical.CrossJoin
	}
	if biggerLeft(left, right) {
		return logical.NewJoin(right, left, jt, swapPairs(on), filter)
	}
	return logical.NewJoin(left, right, jt, on, filter)
}

// swapSemiAnti turns a left semi or anti join whose left input is
// estimated larger into the right-hand join over swapped inputs: same
// rows, same schema, built on the smaller side. A join without equality
// pairs swaps too: the nested-loop join probes a right semi or anti join
// over every partition of its larger side.
func swapSemiAnti(j *logical.Join) logical.Plan {
	var jt logical.JoinType
	switch j.Type {
	case logical.LeftSemiJoin:
		jt = logical.RightSemiJoin
	case logical.LeftAntiJoin:
		jt = logical.RightAntiJoin
	default:
		return j
	}
	if !biggerLeft(j.Left, j.Right) {
		return j
	}
	return logical.NewJoin(j.Right, j.Left, jt, swapPairs(j.On), j.Filter)
}

// biggerLeft reports whether both estimates are known and the left one is
// larger.
func biggerLeft(left, right logical.Plan) bool {
	l, r := EstimateRows(left), EstimateRows(right)
	return l >= 0 && r >= 0 && l > r
}

func swapPairs(on []logical.EquiPair) []logical.EquiPair {
	out := make([]logical.EquiPair, len(on))
	for i, pair := range on {
		out[i] = logical.EquiPair{L: pair.R, R: pair.L}
	}
	return out
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
		// A scan limit of 0 would mean none; the Limit above ends LIMIT 0.
		if len(inner.Filters) == 0 && l.Skip == 0 && reach > 0 {
			out := *inner
			if out.Fetch <= 0 || out.Fetch > reach {
				out.Fetch = reach
			}
			return &logical.Limit{Input: &out, Skip: l.Skip, Fetch: l.Fetch}, nil
		}
	}
	return l, nil
}
