package exec

import (
	"fmt"

	"gofusion/internal/physical"
)

// IsUnbounded reports whether a physical plan's output is unbounded: some
// tailing scan below it can block awaiting new data forever, and no
// bounding operator (a limit with a fetch) cuts the subtree off. Operators
// that merely transform batches propagate their children's property.
func IsUnbounded(p physical.ExecutionPlan) bool {
	switch n := p.(type) {
	case *TableScanExec:
		return n.Unbounded()
	case *GlobalLimitExec:
		if n.Fetch >= 0 {
			return false
		}
	case *LocalLimitExec:
		return false
	case *WatermarkAggExec:
		// Watermark aggregation emits incrementally but only terminates
		// when its input does.
		return IsUnbounded(n.Input)
	}
	for _, c := range p.Children() {
		if IsUnbounded(c) {
			return true
		}
	}
	return false
}

// breakerErr renders the plan-time rejection for a full-pipeline breaker
// placed over an unbounded input.
func breakerErr(op, why string) error {
	return fmt.Errorf("exec: %s cannot run over an unbounded input (%s); seal the source, bound the query with LIMIT, or restructure it for streaming execution", op, why)
}

// validateStreamingPlan is the planner backstop for unbounded inputs: any
// full-pipeline breaker that must consume its whole input before emitting
// (sorts, merges, windows, non-watermark aggregation, build-side joins)
// fails here at plan time with a clear error instead of hanging at
// runtime. The planner's operator-selection paths produce friendlier
// errors first; this catches plans assembled through other entry points
// and anything the physical optimizer rewrites.
func validateStreamingPlan(p physical.ExecutionPlan) error {
	for _, c := range p.Children() {
		if err := validateStreamingPlan(c); err != nil {
			return err
		}
	}
	switch n := p.(type) {
	case *ExternalSortExec:
		if IsUnbounded(n.Input) {
			return breakerErr("ExternalSortExec", "sorting buffers the entire input")
		}
	case *TopKExec:
		if IsUnbounded(n.Input) {
			return breakerErr("TopKExec", "top-k only emits after the input ends")
		}
	case *SortPreservingMergeExec:
		if IsUnbounded(n.Input) {
			return breakerErr("SortPreservingMergeExec", "merging sorted runs requires bounded inputs")
		}
	case *WindowExec:
		if IsUnbounded(n.Input) {
			return breakerErr("WindowExec", "window functions buffer their partitions")
		}
	case *HashAggregateExec:
		if IsUnbounded(n.Input) {
			return breakerErr("HashAggregateExec",
				"aggregation only finalizes at end of input; group by the source's watermark column for streaming emit")
		}
	case joinOp:
		j := n.core()
		if IsUnbounded(j.Left) {
			return breakerErr(j.name, "the build side must be read to completion")
		}
		if IsUnbounded(j.Right) && owesBuildRows(j.Type) {
			return breakerErr(j.name,
				fmt.Sprintf("%s join emits build-side tails only after the probe side ends", j.Type))
		}
	}
	return nil
}

// watermarkColumn traces the source's declared event-time column through
// column-preserving operators to an output-schema index, returning -1
// when the plan has no (still-visible) watermark column. It runs before
// pipeline fusion, so fused segments never appear.
func watermarkColumn(p physical.ExecutionPlan) int {
	switch n := p.(type) {
	case *TableScanExec:
		return n.WatermarkIndex()
	case *ProjectionExec:
		w := watermarkColumn(n.Input)
		if w < 0 {
			return -1
		}
		for i, e := range n.Exprs {
			if c, ok := e.(*physical.ColumnExpr); ok && c.Index == w {
				return i
			}
		}
		return -1
	case *FilterExec:
		return watermarkColumn(n.Input)
	case *CoalescePartitionsExec:
		return watermarkColumn(n.Input)
	case *LocalLimitExec:
		return watermarkColumn(n.Input)
	case *GlobalLimitExec:
		return watermarkColumn(n.Input)
	case *RepartitionExec:
		return watermarkColumn(n.Input)
	}
	return -1
}
