package exec

import (
	"fmt"

	"gofusion/internal/physical"
)

// CheckPlanMetrics validates cross-operator metric invariants over an
// executed plan. It is used by the fuzz and TPC-H harnesses to catch
// metric-accounting bugs: a plan can produce correct rows while its
// instrumentation silently under- or over-counts.
//
// rowsReturned is the number of rows the caller actually received from
// the root stream(s); the root operator's output_rows must match it
// exactly since the caller fully drained the plan.
//
// Interior checks are deliberately one-sided where early termination is
// possible: a GlobalLimit closes its upstream once satisfied, which can
// leave already-produced batches buffered inside exchange channels, so
// an upstream operator may have counted rows its consumer never pulled.
// Equality is only asserted where the pull protocol guarantees it
// (root, one-batch-in/one-batch-out operators, join build sides which
// always run to completion before probing, and an exchange whose every
// output was read to its end).
func CheckPlanMetrics(plan physical.ExecutionPlan, rowsReturned int64) error {
	root, ok := plan.(physical.MetricsProvider)
	if !ok {
		return fmt.Errorf("exec: root operator %T records no metrics", plan)
	}
	if got := root.Metrics().OutputRows(); got != rowsReturned {
		return fmt.Errorf("exec: root %s reports output_rows=%d, caller received %d rows",
			plan.String(), got, rowsReturned)
	}

	var errs []error
	var walk func(n physical.ExecutionPlan)
	walk = func(n physical.ExecutionPlan) {
		if mp, ok := n.(physical.MetricsProvider); ok {
			s := mp.Metrics().Snapshot()
			if (s.SpillCount > 0) != (s.SpilledBytes > 0) {
				errs = append(errs, fmt.Errorf("%s: inconsistent spill accounting: spill_count=%d, spilled_bytes=%d",
					n.String(), s.SpillCount, s.SpilledBytes))
			}
			if s.OutputRows < 0 || s.OutputBatches < 0 || s.Elapsed < 0 {
				errs = append(errs, fmt.Errorf("%s: negative core metric in %s", n.String(), s.String()))
			}
			if s.OutputRows > 0 && s.OutputBatches == 0 {
				errs = append(errs, fmt.Errorf("%s: output_rows=%d but output_batches=0",
					n.String(), s.OutputRows))
			}
			switch op := n.(type) {
			case *ProjectionExec:
				// Projection emits exactly the batches it pulls, so its
				// row count must equal its child's.
				if in, ok := childOutputRows(op.Input); ok && in != s.OutputRows {
					errs = append(errs, fmt.Errorf("%s: output_rows=%d != input rows %d",
						n.String(), s.OutputRows, in))
				}
			case *FilterExec:
				checkAtMost(&errs, n, s.OutputRows, op.Input)
			case *GlobalLimitExec:
				checkAtMost(&errs, n, s.OutputRows, op.Input)
			case *LocalLimitExec:
				checkAtMost(&errs, n, s.OutputRows, op.Input)
			case *WindowExec:
				// One output row per input row, less what a top-k limit
				// pruned (and what a limit above never pulled).
				checkAtMost(&errs, n, s.OutputRows+s.ExtraValue("rows_pruned_topk"), op.Input)
			case *RepartitionExec:
				// An exchange conserves rows. It never emits more than it
				// consumed, and exactly as many once every output was read
				// to its end: then no consumer (a limit above, an error, a
				// cancel) walked away from rows routed to it, and every
				// producer has finished, so both counts are final.
				if in, ok := childOutputRows(op.Input); ok {
					drained := s.ExtraValue("outputs_drained") == int64(op.NumParts)
					if s.OutputRows > in || drained && s.OutputRows < in {
						errs = append(errs, fmt.Errorf("%s: output_rows=%d, input rows %d, outputs_drained=%d of %d",
							n.String(), s.OutputRows, in, s.ExtraValue("outputs_drained"), op.NumParts))
					}
				}
			case *HashAggregateExec:
				// Grouping never multiplies rows (pass-through emits one row
				// per input row); an ungrouped aggregate emits one row per
				// partition even over empty input.
				if len(op.GroupExprs) > 0 {
					checkAtMost(&errs, n, s.OutputRows, op.Input)
				} else if parts := int64(op.Partitions()); s.OutputRows > parts {
					errs = append(errs, fmt.Errorf("%s: ungrouped aggregate output_rows=%d exceeds its %d partition(s)",
						n.String(), s.OutputRows, parts))
				}
			case joinOp:
				// The build side always runs to completion at Execute
				// time, so build_rows must equal the left child's output.
				if in, ok := childOutputRows(op.core().Left); ok {
					if build := s.ExtraValue("build_rows"); build != in {
						errs = append(errs, fmt.Errorf("%s: build_rows=%d != left input rows %d",
							n.String(), build, in))
					}
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(plan)
	if len(errs) > 0 {
		return fmt.Errorf("exec: %d metric invariant violation(s), first: %w", len(errs), errs[0])
	}
	return nil
}

// PlanSpillStats sums spill_count and spilled_bytes across every operator
// in an executed plan (used by harnesses to assert that memory-limited
// configurations actually exercised the spill paths).
func PlanSpillStats(plan physical.ExecutionPlan) (count, bytes int64) {
	var walk func(n physical.ExecutionPlan)
	walk = func(n physical.ExecutionPlan) {
		if mp, ok := n.(physical.MetricsProvider); ok {
			count += mp.Metrics().SpillCount()
			bytes += mp.Metrics().SpilledBytes()
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(plan)
	return count, bytes
}

func childOutputRows(c physical.ExecutionPlan) (int64, bool) {
	mp, ok := c.(physical.MetricsProvider)
	if !ok {
		return 0, false
	}
	return mp.Metrics().OutputRows(), true
}

func checkAtMost(errs *[]error, n physical.ExecutionPlan, out int64, child physical.ExecutionPlan) {
	if in, ok := childOutputRows(child); ok && out > in {
		*errs = append(*errs, fmt.Errorf("%s: output_rows=%d exceeds input rows %d",
			n.String(), out, in))
	}
}
