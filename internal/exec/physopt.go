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
func applyPhysicalOptimizers(plan physical.ExecutionPlan, cfg *PlannerConfig) (physical.ExecutionPlan, error) {
	plan, err := removeRedundantCoalesce(plan)
	if err != nil {
		return nil, err
	}
	plan, err = limitWindowTopK(plan, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.DisableFusion {
		plan, err = fusePipelines(plan)
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
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

// fusePipelines compiles maximal chains of push-capable operators into
// PipelineExec segments (ROADMAP open item 2). Working bottom-up, every
// push-capable operator either absorbs into the segment its child
// already started or opens a new one; scans that expose morsels open a
// segment even alone so they run morsel-driven. A second pass unwraps
// segments too small to pay off: fewer than two fused stages over a
// source without morsels. Pipeline breakers (sorts, joins, exchanges,
// final aggregation, windows) never implement Pushable, so chanStream
// exchanges survive exactly at breaker boundaries.
func fusePipelines(plan physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	fused, err := transformUp(plan, func(p physical.ExecutionPlan) (physical.ExecutionPlan, error) {
		if pe, ok := p.(physical.Pushable); ok && pe.CanPush() {
			child := p.Children()[0]
			if seg, ok := child.(*PipelineExec); ok {
				top, err := p.WithChildren([]physical.ExecutionPlan{seg.top()})
				if err != nil {
					return nil, err
				}
				stages := append(append([]physical.ExecutionPlan(nil), seg.Stages...), top)
				return &PipelineExec{Source: seg.Source, Stages: stages}, nil
			}
			return &PipelineExec{Source: child, Stages: []physical.ExecutionPlan{p}}, nil
		}
		if scanHasMorsels(p) {
			return &PipelineExec{Source: p}, nil
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return transformUp(fused, func(p physical.ExecutionPlan) (physical.ExecutionPlan, error) {
		seg, ok := p.(*PipelineExec)
		if !ok || len(seg.Stages) >= 2 || scanHasMorsels(seg.Source) {
			return p, nil
		}
		return seg.top(), nil
	})
}

func scanHasMorsels(p physical.ExecutionPlan) bool {
	s, ok := p.(*TableScanExec)
	return ok && s.Result.Morsels != nil && s.Result.Morsels.Units() > 0
}

// removeRedundantCoalesce drops stacked CoalesceBatchesExec and
// single-input CoalescePartitionsExec nodes, and removes batch coalescing
// over unbounded inputs entirely: a live tail may never fill the target
// row count, so buffering toward it would block the pipeline forever.
// Streaming output trades batch size for latency.
func removeRedundantCoalesce(plan physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return transformUp(plan, func(p physical.ExecutionPlan) (physical.ExecutionPlan, error) {
		switch node := p.(type) {
		case *CoalesceBatchesExec:
			if IsUnbounded(node.Input) {
				return node.Input, nil
			}
			if inner, ok := node.Input.(*CoalesceBatchesExec); ok {
				return &CoalesceBatchesExec{Input: inner.Input, Target: node.Target}, nil
			}
		case *CoalescePartitionsExec:
			if node.Input.Partitions() == 1 {
				return node.Input, nil
			}
		}
		return p, nil
	})
}

// limitWindowTopK is the per-partition top-k rewrite: a filter
// `rn <= k`, `rn < k` or `rn = 1` directly over a WindowExec (through
// CoalesceBatchesExec) whose one spec is the row_number() producing rn,
// with PARTITION BY keys, makes every row past the k-th of its group dead,
// provided nothing above the filter reads rn. The window then gets
// TopK = k and keeps a k-bounded heap per group instead of sorting; the
// filter stays and passes everything the window emits. The limited window
// emits its rows in input order like the full one, so sorts that lowering
// dropped because the window passes an ordering through stay correct.
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
	case *CoalesceBatchesExec, *CoalescePartitionsExec, *GlobalLimitExec, *LocalLimitExec:
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
	var coalesces []*CoalesceBatchesExec
	input := filter.Input
	for {
		c, ok := input.(*CoalesceBatchesExec)
		if !ok {
			break
		}
		coalesces = append(coalesces, c)
		input = c.Input
	}
	w, ok := input.(*WindowExec)
	// Without PARTITION BY the shape is a plain top-k, which is TopKExec's.
	if !ok || len(w.Specs) != 1 || w.Specs[0].Name != "row_number" ||
		len(w.Specs[0].PartitionBy) == 0 || col.Index != w.Input.Schema().NumFields() {
		return nil
	}
	limited := NewWindowExec(w.Input, w.Specs, w.Reg)
	limited.TopK = max(k, 0)
	var plan physical.ExecutionPlan = limited
	for i := len(coalesces) - 1; i >= 0; i-- {
		plan = &CoalesceBatchesExec{Input: plan, Target: coalesces[i].Target}
	}
	return &FilterExec{Input: plan, Predicate: filter.Predicate}
}
