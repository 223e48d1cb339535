package optimizer

import (
	"errors"
	"strings"

	"gofusion/internal/logical"
)

// ProjectionPushdown narrows every node to the columns read above it
// (paper Section 6.8; DataFusion's OptimizeProjections). One top-down walk
// hands each node the set of its output columns that its parent reads, and
// the node asks its inputs only for those plus the columns it reads
// itself. Scans decode only what is read; projections drop the
// expressions nobody reads; and a join whose output holds columns nothing above reads gets a
// projection of the read ones, which the physical planner folds into the
// join so the probe never gathers the rest. It runs after JoinOrder, so
// the projection restoring a reordered region's column order shrinks too.
type ProjectionPushdown struct{}

// Name implements Rule.
func (*ProjectionPushdown) Name() string { return "projection_pushdown" }

// Apply implements Rule.
func (r *ProjectionPushdown) Apply(plan logical.Plan, ctx *Context) (logical.Plan, error) {
	return prune(plan, nil, ctx)
}

// prune rewrites p so that its output keeps the fields need marks (nil:
// all of them, exactly as they are) and drops what else it can. Other
// fields may remain. Parents resolve columns by name, so a narrower
// schema keeps every reference they make valid.
func prune(p logical.Plan, need []bool, ctx *Context) (logical.Plan, error) {
	switch n := p.(type) {
	case *logical.TableScan:
		return pruneScan(n, need), nil
	case *logical.Projection:
		return pruneProjection(n, need, ctx)
	case *logical.Filter:
		return pruneInput(n, reads(n.Input.Schema(), need, n.Predicate), ctx)
	case *logical.Sort:
		keys := make([]logical.Expr, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = k.E
		}
		return pruneInput(n, reads(n.Input.Schema(), need, keys...), ctx)
	case *logical.Limit:
		return pruneInput(n, need, ctx)
	case *logical.Aggregate:
		exprs := append(append([]logical.Expr{}, n.GroupExprs...), n.AggExprs...)
		return pruneInput(n, reads(n.Input.Schema(), noneOf(n.Input.Schema()), exprs...), ctx)
	case *logical.Window:
		// The window's output starts with its input's fields.
		in := n.Input.Schema()
		var passed []bool
		if need != nil {
			passed = need[:in.Len()]
		}
		return pruneInput(n, reads(in, passed, n.WindowExprs...), ctx)
	case *logical.SubqueryAlias:
		// Field i of the alias is field i of its input.
		return pruneInput(n, need, ctx)
	case *logical.Join:
		return pruneJoin(n, need, ctx)
	case *logical.Union:
		return pruneUnion(n, need, ctx)
	}
	// Distinct compares whole rows; Values, EmptyRelation and extension
	// nodes are taken as they are. Their inputs keep every column.
	children := p.Children()
	if len(children) == 0 {
		return p, nil
	}
	out := make([]logical.Plan, len(children))
	changed := false
	for i, c := range children {
		pc, err := prune(c, nil, ctx)
		if err != nil {
			return nil, err
		}
		out[i], changed = pc, changed || pc != c
	}
	if !changed {
		return p, nil
	}
	return p.WithChildren(out), nil
}

// pruneInput prunes a single-input node's input to need and rebuilds the
// node over it when it changed.
func pruneInput(p logical.Plan, need []bool, ctx *Context) (logical.Plan, error) {
	child := p.Children()[0]
	in, err := prune(child, need, ctx)
	if err != nil || in == child {
		return p, err
	}
	return p.WithChildren([]logical.Plan{in}), nil
}

// pruneScan narrows a scan to the needed columns and those its pushed
// filters read (the residual filter is planned over the scan's output).
func pruneScan(scan *logical.TableScan, need []bool) logical.Plan {
	if need == nil {
		return scan
	}
	keep := reads(scan.Schema(), need, scan.Filters...)
	var cols []int
	for i, k := range keep {
		if k {
			cols = append(cols, i)
		}
	}
	if len(cols) == len(keep) {
		return scan
	}
	if len(cols) == 0 {
		// Keep one (narrowest) column so the scan still produces row
		// counts for COUNT(*).
		best, bestW := 0, 1<<30
		for i, f := range scan.Schema().Fields() {
			w := f.Type.BitWidth()
			if w == 0 {
				w = 1 << 20
			}
			if w < bestW {
				best, bestW = i, w
			}
		}
		cols = []int{best}
	}
	if scan.Projection != nil {
		for i, c := range cols {
			cols[i] = scan.Projection[c]
		}
	}
	return scan.WithProjection(cols)
}

// pruneProjection keeps the needed expressions. A projection nobody reads
// a column of (under count(*)) goes: its input then keeps whichever one
// column is cheapest for it, so that rows still count.
func pruneProjection(proj *logical.Projection, need []bool, ctx *Context) (logical.Plan, error) {
	if need != nil && !containsTrue(need) {
		return prune(proj.Input, noneOf(proj.Input.Schema()), ctx)
	}
	var exprs []logical.Expr
	for i, e := range proj.Exprs {
		if need == nil || need[i] {
			exprs = append(exprs, e)
		}
	}
	in, err := prune(proj.Input, reads(proj.Input.Schema(), noneOf(proj.Input.Schema()), exprs...), ctx)
	if err != nil {
		return nil, err
	}
	if in == proj.Input && len(exprs) == len(proj.Exprs) {
		return proj, nil
	}
	return logical.NewProjection(in, exprs, ctx.Reg)
}

// pruneJoin asks each side for the columns the join reads (keys, residual
// filter) and those read above it, and projects the join's output to the
// latter when it holds more.
func pruneJoin(j *logical.Join, need []bool, ctx *Context) (logical.Plan, error) {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	var lneed, rneed []bool
	switch j.Type {
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		lneed, rneed = need, noneOf(rs)
	case logical.RightSemiJoin, logical.RightAntiJoin:
		lneed, rneed = noneOf(ls), need
	default:
		if need != nil {
			lneed, rneed = need[:ls.Len()], need[ls.Len():]
		}
	}
	var lkeys, rkeys []logical.Expr
	for _, pair := range j.On {
		lkeys = append(lkeys, pair.L)
		rkeys = append(rkeys, pair.R)
	}
	if j.Filter != nil {
		lkeys = append(lkeys, j.Filter)
		rkeys = append(rkeys, j.Filter)
	}
	left, err := prune(j.Left, reads(ls, lneed, lkeys...), ctx)
	if err != nil {
		return nil, err
	}
	right, err := prune(j.Right, reads(rs, rneed, rkeys...), ctx)
	if err != nil {
		return nil, err
	}
	out := j
	if left != j.Left || right != j.Right {
		out = logical.NewJoin(left, right, j.Type, j.On, j.Filter)
	}
	if need == nil {
		return out, nil
	}
	if !containsTrue(need) {
		// Nothing above reads a column: keep one the join reads anyway, a
		// probe-side key where the join emits probe columns, since those
		// pass through.
		orig := out.Schema()
		need = noneOf(orig)
		switch j.Type {
		case logical.LeftSemiJoin, logical.LeftAntiJoin:
			need[firstRead(left.Schema(), lkeys)] = true
		case logical.RightSemiJoin, logical.RightAntiJoin:
			need[firstRead(right.Schema(), rkeys)] = true
		default:
			need[left.Schema().Len()+firstRead(right.Schema(), rkeys)] = true
		}
		return exactFields(out, orig, need, ctx)
	}
	return exactFields(out, j.Schema(), need, ctx)
}

// pruneUnion prunes every input to the same field positions. Inputs are
// matched by position, so each is projected to exactly the needed fields.
func pruneUnion(u *logical.Union, need []bool, ctx *Context) (logical.Plan, error) {
	for _, in := range u.Inputs {
		if hasDuplicateFields(in.Schema()) {
			need = nil
		}
	}
	if need != nil && !containsTrue(need) {
		need = append([]bool{true}, need[1:]...)
	}
	inputs := make([]logical.Plan, len(u.Inputs))
	for i, in := range u.Inputs {
		pin, err := prune(in, need, ctx)
		if err != nil {
			return nil, err
		}
		if need != nil {
			if pin, err = exactFields(pin, in.Schema(), need, ctx); err != nil {
				return nil, err
			}
		}
		inputs[i] = pin
	}
	return &logical.Union{Inputs: inputs, All: u.All}, nil
}

// exactFields returns p with exactly the fields of orig that need marks,
// in order, adding a projection of bare columns when p has others.
func exactFields(p logical.Plan, orig *logical.Schema, need []bool, ctx *Context) (logical.Plan, error) {
	var exprs []logical.Expr
	for i, f := range orig.Fields() {
		if need[i] {
			exprs = append(exprs, &logical.Column{Relation: f.Qualifier, Name: f.Name})
		}
	}
	if len(exprs) == p.Schema().Len() || hasDuplicateFields(p.Schema()) {
		return p, nil
	}
	return logical.NewProjection(p, exprs, ctx.Reg)
}

// reads returns need (nil: every field) extended with the fields of
// schema the expressions reference, subquery plans included. A name that
// resolves ambiguously marks every field it could mean; one that does not
// resolve (an outer reference of a correlated subquery) marks nothing.
func reads(schema *logical.Schema, need []bool, exprs ...logical.Expr) []bool {
	if need == nil {
		return nil
	}
	out := append([]bool(nil), need...)
	for _, e := range exprs {
		for _, c := range columnsDeep(e) {
			i, err := schema.IndexOfColumn(c)
			if err == nil {
				out[i] = true
				continue
			}
			var amb *logical.ErrAmbiguous
			if errors.As(err, &amb) {
				for k, f := range schema.Fields() {
					if strings.EqualFold(f.Name, c.Name) {
						out[k] = true
					}
				}
			}
		}
	}
	return out
}

// columnsDeep collects the columns e references, descending into the plans
// of subquery expressions.
func columnsDeep(e logical.Expr) []*logical.Column {
	var out []*logical.Column
	var visit func(e logical.Expr)
	visit = func(e logical.Expr) {
		logical.VisitExpr(e, func(x logical.Expr) bool {
			var sub logical.Plan
			switch sq := x.(type) {
			case *logical.Column:
				out = append(out, sq)
			case *logical.ScalarSubquery:
				sub = sq.Plan
			case *logical.Exists:
				sub = sq.Plan
			case *logical.InSubquery:
				sub = sq.Plan
			}
			if sub != nil {
				logical.VisitPlan(sub, func(n logical.Plan) bool {
					for _, ne := range exprsOf(n) {
						visit(ne)
					}
					return true
				})
			}
			return true
		})
	}
	visit(e)
	return out
}

// firstRead is the first field of schema the expressions read, or 0.
func firstRead(schema *logical.Schema, exprs []logical.Expr) int {
	for i, r := range reads(schema, noneOf(schema), exprs...) {
		if r {
			return i
		}
	}
	return 0
}

func noneOf(s *logical.Schema) []bool { return make([]bool, s.Len()) }

func containsTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}
