package exec

import (
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// applyPhysicalOptimizers runs ExecutionPlan rewrites after planning
// (paper Section 6.1: "ExecutionPlan rewrites include eliminating
// unnecessary sorts, maximizing parallel execution..."). Sort elimination
// and Top-K selection happen during lowering where logical context is
// available; the passes here operate on the physical tree.
func applyPhysicalOptimizers(plan physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	plan, err := limitWindowTopK(plan, nil)
	if err != nil {
		return nil, err
	}
	plan, err = foldJoinProjections(plan)
	if err != nil {
		return nil, err
	}
	return fusePipelines(plan)
}

// transformUp rewrites a physical plan bottom-up.
func transformUp(plan physical.ExecutionPlan, f func(physical.ExecutionPlan) (physical.ExecutionPlan, error)) (physical.ExecutionPlan, error) {
	children := plan.Children()
	if len(children) > 0 {
		newChildren := make([]physical.ExecutionPlan, len(children))
		changed := false
		for i, c := range children {
			nc, err := transformUp(c, f)
			if err != nil {
				return nil, err
			}
			newChildren[i] = nc
			if nc != c {
				changed = true
			}
		}
		if changed {
			var err error
			plan, err = plan.WithChildren(newChildren)
			if err != nil {
				return nil, err
			}
		}
	}
	return f(plan)
}

// fusePipelines compiles maximal chains of two or more push-capable
// operators into PipelineExec segments, following each stage's streamed
// child. Working bottom-up, a push-capable operator over a segment joins
// it, and one over another push-capable operator opens a segment with it;
// an operator alone between two non-pushable nodes stays as it is, since
// its own Execute is already the one-stage loop. Aggregates of every mode
// are push stages that emit at Flush, and a hash join's probe is a stage
// over its right input (its build side stays a child outside the loop), so
// scan -> filter -> probe -> probe -> partial aggregate is one loop. Sorts,
// exchanges and windows never implement Pushable, so chanStream exchanges
// survive exactly at those boundaries.
func fusePipelines(plan physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return transformUp(plan, func(p physical.ExecutionPlan) (physical.ExecutionPlan, error) {
		if !canPush(p) {
			return p, nil
		}
		child := streamedChild(p)
		if seg, ok := child.(*PipelineExec); ok {
			top, err := withStreamedChild(p, seg.top())
			if err != nil {
				return nil, err
			}
			stages := append(append([]physical.ExecutionPlan(nil), seg.Stages...), top)
			return &PipelineExec{Source: seg.Source, Stages: stages}, nil
		}
		if canPush(child) {
			return &PipelineExec{Source: streamedChild(child), Stages: []physical.ExecutionPlan{child, p}}, nil
		}
		return p, nil
	})
}

// foldJoinProjections folds a projection of bare columns directly over a
// join into the join's output projection, so the probe gathers only the
// columns the projection keeps.
func foldJoinProjections(plan physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return transformUp(plan, func(p physical.ExecutionPlan) (physical.ExecutionPlan, error) {
		proj, ok := p.(*ProjectionExec)
		if !ok {
			return p, nil
		}
		join, ok := proj.Input.(joinOp)
		if !ok {
			return p, nil
		}
		jc := join.core()
		cols := make([]int, len(proj.Exprs))
		for i, x := range proj.Exprs {
			c, bare := x.(*physical.ColumnExpr)
			if !bare {
				return p, nil
			}
			cols[i] = c.Index
			if jc.Projection != nil {
				cols[i] = jc.Projection[c.Index]
			}
		}
		return join.with(jc.Left, jc.Right, cols, proj.Schema()), nil
	})
}

// limitWindowTopK is the per-partition top-k rewrite: a filter
// `rn <= k`, `rn < k` or `rn = 1` directly over a WindowExec whose one
// spec is the row_number() producing rn makes every row past the k-th of
// its PARTITION BY group dead, provided nothing above the filter reads rn.
// The window then gets TopK = k and keeps a k-bounded heap per group
// instead of sorting; the filter stays and passes everything the window
// emits. The limited window emits its rows in input order like the full
// one, so sorts that lowering dropped because the window passes an
// ordering through stay correct.
//
// The rule is physical on purpose: the baseline engine shares the logical
// optimizer and PlanWindowOver but not this pass, so it keeps evaluating
// the full window and remains an independent reference.
//
// unread[i] tells that no operator above plan reads plan's output column
// i; nil means every column may be read (the root's output is the query
// result). Liveness is tracked only through the operators that sit between
// a subquery's window and the outer SELECT list: projections of bare
// columns and schema-preserving pass-through operators.
func limitWindowTopK(plan physical.ExecutionPlan, unread []bool) (physical.ExecutionPlan, error) {
	var below []bool
	switch node := plan.(type) {
	case *ProjectionExec:
		below = make([]bool, node.Input.Schema().NumFields())
		for i := range below {
			below[i] = true
		}
		for i, x := range node.Exprs {
			col, bare := x.(*physical.ColumnExpr)
			if !bare {
				below = nil // a computed output may read any input column
				break
			}
			if unread == nil || !unread[i] {
				below[col.Index] = false
			}
		}
	case *CoalescePartitionsExec, *GlobalLimitExec, *LocalLimitExec:
		below = unread
	case *FilterExec:
		if limited := topKWindowUnder(node, unread); limited != nil {
			plan = limited
		}
	}
	children := append([]physical.ExecutionPlan(nil), plan.Children()...)
	changed := false
	for i, c := range children {
		nc, err := limitWindowTopK(c, below)
		if err != nil {
			return nil, err
		}
		if nc != c {
			children[i], changed = nc, true
		}
	}
	if !changed {
		return plan, nil
	}
	return plan.WithChildren(children)
}

// topKWindowUnder returns filter rebuilt over a TopK-limited copy of the
// WindowExec under it, or nil when the shape is not eligible.
func topKWindowUnder(filter *FilterExec, unread []bool) physical.ExecutionPlan {
	pred, ok := filter.Predicate.(*physical.BinaryExpr)
	if !ok {
		return nil
	}
	col, ok := pred.L.(*physical.ColumnExpr)
	lit, isLit := pred.R.(*physical.LiteralExpr)
	if !ok || !isLit || lit.Value.Null || !lit.Value.Type.IsInteger() {
		return nil
	}
	if unread == nil || !unread[col.Index] {
		return nil
	}
	k := lit.Value.AsInt64()
	switch {
	case pred.Op == logical.OpLtEq:
	case pred.Op == logical.OpLt:
		k--
	case pred.Op == logical.OpEq && k == 1:
	default:
		return nil
	}
	w, ok := filter.Input.(*WindowExec)
	if !ok || len(w.Specs) != 1 || w.Specs[0].Name != "row_number" ||
		col.Index != w.Input.Schema().NumFields() {
		return nil
	}
	limited := NewWindowExec(w.Input, w.Specs, w.Reg)
	limited.TopK = max(k, 0)
	return &FilterExec{Input: limited, Predicate: filter.Predicate}
}
