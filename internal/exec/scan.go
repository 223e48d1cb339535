package exec

import (
	"fmt"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/physical"
)

// TableScanExec reads from a TableProvider with pushed-down projection,
// filters, and limit (paper Section 6.8).
type TableScanExec struct {
	physical.OpMetrics
	Name   string
	Result *catalog.ScanResult
	order  []physical.SortField
}

// NewTableScanExec wraps a prepared provider scan.
func NewTableScanExec(name string, result *catalog.ScanResult) *TableScanExec {
	ex := &TableScanExec{Name: name, Result: result}
	for _, oc := range result.SortOrder {
		idx := result.Schema.FieldIndex(oc.Name)
		if idx < 0 {
			// A projected-out ordering column ends the usable prefix.
			break
		}
		ex.order = append(ex.order, physical.SortField{Col: idx, Descending: oc.Desc, NullsFirst: oc.Desc})
	}
	return ex
}

func (e *TableScanExec) Schema() *arrow.Schema { return e.Result.Schema }
func (e *TableScanExec) Children() []physical.ExecutionPlan {
	return nil
}
func (e *TableScanExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 0 {
		return nil, fmt.Errorf("exec: scan takes no children")
	}
	return e, nil
}
func (e *TableScanExec) Partitions() int { return e.Result.Partitions }
func (e *TableScanExec) OutputOrdering() []physical.SortField {
	return e.order
}

// Unbounded reports whether this scan tails a live source (streams block
// awaiting data instead of returning io.EOF until the source seals).
func (e *TableScanExec) Unbounded() bool { return e.Result.Unbounded }

// WatermarkIndex returns the output-schema index of the source's declared
// event-time column, or -1 when none.
func (e *TableScanExec) WatermarkIndex() int { return e.Result.Watermark - 1 }

// Execute opens one partition of the provider's scan; which rows it
// reads is the provider's schedule.
func (e *TableScanExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	s, err := e.Result.Open(partition)
	if err != nil {
		return nil, err
	}
	// Tailing sources block in Next awaiting new data; hand them the query
	// context so blocked reads unblock on cancellation.
	if cs, ok := s.(catalog.CtxStream); ok && ctx != nil && ctx.Ctx != nil {
		cs.BindContext(ctx.Ctx)
	}
	return e.instrument(s), nil
}

// instrument wraps one partition stream with the scan's metrics and runtime pruning counters.
func (e *TableScanExec) instrument(s physical.Stream) physical.Stream {
	m := e.Metrics()
	is := physical.InstrumentStream(s, m)
	rt := e.Result.Runtime
	if rt == nil {
		return is
	}
	// Re-publish the scan-wide pruning totals on every stream close (the
	// counters are monotone, so Store of the latest totals is exact once
	// all partitions have closed).
	rgPruned := m.Counter("row_groups_pruned")
	rgScanned := m.Counter("row_groups_scanned")
	pagesPruned := m.Counter("pages_pruned")
	bloomSkipped := m.Counter("bloom_skipped")
	cacheHits := m.Counter("page_cache_hits")
	cacheMisses := m.Counter("page_cache_misses")
	zeroCopy := m.Counter("rows_zero_copy")
	gathered := m.Counter("rows_gathered")
	flush := func() {
		is.Close()
		rgPruned.Store(rt.RowGroupsPruned.Load())
		rgScanned.Store(rt.RowGroupsScanned.Load())
		pagesPruned.Store(rt.PagesPruned.Load())
		bloomSkipped.Store(rt.BloomSkipped.Load())
		cacheHits.Store(rt.PageCacheHits.Load())
		cacheMisses.Store(rt.PageCacheMisses.Load())
		zeroCopy.Store(rt.RowsZeroCopy.Load())
		gathered.Store(rt.RowsGathered.Load())
	}
	// Publish plan-time pruning immediately so it shows even when the
	// stream is abandoned before any batch is drained.
	rgPruned.Store(rt.RowGroupsPruned.Load())
	return NewFuncStream(e.Schema(), is.Next, flush)
}
func (e *TableScanExec) String() string {
	cols := make([]string, e.Result.Schema.NumFields())
	for i, f := range e.Result.Schema.Fields() {
		cols[i] = f.Name
	}
	s := fmt.Sprintf("TableScanExec: %s partitions=%d cols=[%s]", e.Name, e.Result.Partitions, strings.Join(cols, ","))
	if e.Result.Detail != "" {
		s += " " + e.Result.Detail
	}
	return s
}
