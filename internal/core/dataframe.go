package core

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
)

// DataFrame is a lazy query: a logical plan plus the session that will
// optimize and run it (paper Section 5.3.3, modeled after pandas). All
// transformation methods return new frames; execution happens at Collect.
type DataFrame struct {
	session *SessionContext
	plan    logical.Plan
	err     error
	// resultKey, when non-empty, makes Collect consult the session's
	// result cache (set only by SessionContext.SQL for plain queries —
	// derived frames drop it, since transformations change the result).
	resultKey string
	// preOptimized marks plan as already optimized (a plan-cache entry):
	// execution skips the optimizer and lowers directly. Derived frames
	// drop it, since transformations build new unoptimized nodes on top.
	preOptimized bool
	// tables are the table lookups plan was built from, with their write
	// stamps; a result-cache entry records them.
	tables tableStamps
	// planHit reports that plan came from the plan cache.
	planHit bool
}

// LogicalPlan returns the frame's (unoptimized) logical plan.
func (df *DataFrame) LogicalPlan() logical.Plan { return df.plan }

// Err returns the first deferred construction error.
func (df *DataFrame) Err() error { return df.err }

// Schema returns the output schema.
func (df *DataFrame) Schema() *logical.Schema {
	if df.plan == nil {
		return logical.NewSchema()
	}
	return df.plan.Schema()
}

func (df *DataFrame) derive(plan logical.Plan, err error) *DataFrame {
	if df.err != nil {
		return df
	}
	if err != nil {
		return &DataFrame{session: df.session, err: err}
	}
	return &DataFrame{session: df.session, plan: plan}
}

// Select projects expressions (strings are parsed as column names).
func (df *DataFrame) Select(exprs ...logical.Expr) *DataFrame {
	if df.err != nil {
		return df
	}
	p, err := logical.NewProjection(df.plan, exprs, df.session.reg)
	return df.derive(p, err)
}

// SelectColumns projects named columns.
func (df *DataFrame) SelectColumns(names ...string) *DataFrame {
	exprs := make([]logical.Expr, len(names))
	for i, n := range names {
		exprs[i] = logical.Col(n)
	}
	return df.Select(exprs...)
}

// Filter keeps rows matching the predicate.
func (df *DataFrame) Filter(pred logical.Expr) *DataFrame {
	if df.err != nil {
		return df
	}
	return df.derive(&logical.Filter{Input: df.plan, Predicate: pred}, nil)
}

// Aggregate groups and aggregates.
func (df *DataFrame) Aggregate(groups []logical.Expr, aggs []logical.Expr) *DataFrame {
	if df.err != nil {
		return df
	}
	p, err := logical.NewAggregate(df.plan, groups, aggs, df.session.reg)
	return df.derive(p, err)
}

// Sort orders the output.
func (df *DataFrame) Sort(keys ...logical.SortExpr) *DataFrame {
	if df.err != nil {
		return df
	}
	return df.derive(&logical.Sort{Input: df.plan, Keys: keys, Fetch: -1}, nil)
}

// Limit applies skip/fetch.
func (df *DataFrame) Limit(skip, fetch int64) *DataFrame {
	if df.err != nil {
		return df
	}
	return df.derive(&logical.Limit{Input: df.plan, Skip: skip, Fetch: fetch}, nil)
}

// Join joins with another frame.
func (df *DataFrame) Join(right *DataFrame, jt logical.JoinType, on []logical.EquiPair, filter logical.Expr) *DataFrame {
	if df.err != nil {
		return df
	}
	if right.err != nil {
		return right
	}
	return df.derive(logical.NewJoin(df.plan, right.plan, jt, on, filter), nil)
}

// Union appends another frame's rows.
func (df *DataFrame) Union(other *DataFrame, all bool) *DataFrame {
	if df.err != nil {
		return df
	}
	if other.err != nil {
		return other
	}
	plan, err := logical.FromPlan(df.plan, df.session.reg).Union(other.plan, all).Build()
	return df.derive(plan, err)
}

// Distinct removes duplicate rows.
func (df *DataFrame) Distinct() *DataFrame {
	if df.err != nil {
		return df
	}
	return df.derive(&logical.Distinct{Input: df.plan}, nil)
}

// Window appends window expressions.
func (df *DataFrame) Window(exprs ...logical.Expr) *DataFrame {
	if df.err != nil {
		return df
	}
	p, err := logical.NewWindow(df.plan, exprs, df.session.reg)
	return df.derive(p, err)
}

// Alias renames the frame's relation.
func (df *DataFrame) Alias(name string) *DataFrame {
	if df.err != nil {
		return df
	}
	return df.derive(logical.NewSubqueryAlias(df.plan, name), nil)
}

// Collect executes the frame and returns all batches. Queries entered
// through SQL() on a session with the result cache enabled are memoized:
// a repeat of the identical normalized query over unchanged tables
// returns the cached batches (immutable shared views) without planning
// or executing.
func (df *DataFrame) Collect() ([]*arrow.RecordBatch, error) {
	return df.CollectContext(context.Background())
}

// CollectContext is Collect under a caller context: cancelling ctx (or
// its deadline passing) aborts execution, unwinding operators and
// releasing the per-query runtime. The service layer uses it to enforce
// per-request timeouts and to stop work for disconnected clients. The
// result and plan caches participate exactly like in Collect.
func (df *DataFrame) CollectContext(ctx context.Context) ([]*arrow.RecordBatch, error) {
	return df.collect(ctx, nil)
}

// collect runs the frame once: result-cache lookup, physical planning,
// execution under ctx, result-cache store. A non-nil qm receives the plan,
// the pool peak and whether the plan and result caches served the query.
func (df *DataFrame) collect(ctx context.Context, qm *QueryMetrics) ([]*arrow.RecordBatch, error) {
	if df.err != nil {
		return nil, df.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := df.session
	memoized := df.resultKey != "" && s.results != nil
	if qm != nil {
		qm.PlanCacheHit = df.planHit
	}
	if memoized {
		if ent, ok := s.results.get(df.resultKey, s.catalog); ok {
			if qm != nil {
				// A hit still reports a plan: planned, never executed.
				pp, err := s.physicalPlanFor(df)
				if err != nil {
					return nil, err
				}
				qm.Plan, qm.ResultCacheHit = pp, true
			}
			return ent.val, nil
		}
	}
	pp, err := s.physicalPlanFor(df)
	if err != nil {
		return nil, err
	}
	ectx, cleanup := s.newExecContext(ctx)
	defer cleanup()
	batches, err := exec.CollectPlan(ectx, pp)
	if err != nil {
		return nil, err
	}
	if memoized {
		var size int64
		for _, b := range batches {
			size += arrow.BatchSize(b)
		}
		s.results.put(df.resultKey, df.tables, batches, size)
	}
	if qm != nil {
		qm.Plan = pp
		qm.PoolReservedPeak = ectx.Pool.ReservedPeak()
	}
	return batches, nil
}

// QueryMetrics summarizes one executed query: the executed physical plan
// (whose operators carry per-operator MetricsSets, renderable with
// exec.ExplainAnalyze), the memory-pool high-water mark, and the cache
// activity attributable to this query (paper Sections 5.5 and 7.4).
type QueryMetrics struct {
	// Plan is the executed physical plan; its operators retain their
	// runtime metrics after execution.
	Plan physical.ExecutionPlan
	// RowsReturned is the total row count handed back to the caller.
	RowsReturned int64
	// PoolReservedPeak is the query memory pool's high-water mark in
	// bytes (tracked reservations only).
	PoolReservedPeak int64
	// Footer-cache hit/miss deltas recorded between planning start and
	// execution end. The footer cache is process-wide, so concurrent
	// queries' opens count too.
	MetaHits, MetaMisses int64
	// Shared decoded-page cache deltas attributable to this query, plus
	// the cache's current residency after it (zero when disabled).
	PageCacheHits, PageCacheMisses int64
	PageCacheEvictions             int64
	PageCacheBytes                 int64
	// Result cache activity: lookup/store deltas and whether this
	// execution was served wholly from the result cache.
	ResultCacheHits, ResultCacheMisses int64
	ResultCacheBytes                   int64
	ResultCacheHit                     bool
	// PlanCacheHit reports that this query's optimized plan came from the
	// plan cache: its own lookup's outcome, which a concurrent query
	// cannot move.
	PlanCacheHit bool
}

// CollectWithMetrics executes the frame and returns the batches together
// with the query's runtime metrics. The result cache participates like
// in Collect: on a hit the returned plan is the planned-but-not-executed
// physical plan (its operator metrics stay zero) and ResultCacheHit is
// set.
func (df *DataFrame) CollectWithMetrics() ([]*arrow.RecordBatch, *QueryMetrics, error) {
	return df.CollectWithMetricsContext(context.Background())
}

// CollectWithMetricsContext is CollectWithMetrics under a caller context
// (see CollectContext); the service layer's per-request accounting and
// /stats endpoint reuse this plumbing.
func (df *DataFrame) CollectWithMetricsContext(ctx context.Context) ([]*arrow.RecordBatch, *QueryMetrics, error) {
	if df.err != nil {
		return nil, nil, df.err
	}
	s := df.session
	meta0 := parquet.FooterCacheStats()
	var pc0 memory.SizedStats
	if s.pages != nil {
		pc0 = s.pages.Stats()
	}
	var rc0 PlanCacheStats
	if s.results != nil {
		rc0 = s.results.Stats()
	}
	qm := &QueryMetrics{}
	batches, err := df.collect(ctx, qm)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range batches {
		qm.RowsReturned += int64(b.NumRows())
	}
	meta1 := parquet.FooterCacheStats()
	qm.MetaHits, qm.MetaMisses = meta1.Hits-meta0.Hits, meta1.Misses-meta0.Misses
	if s.pages != nil {
		pc1 := s.pages.Stats()
		qm.PageCacheHits = pc1.Hits - pc0.Hits
		qm.PageCacheMisses = pc1.Misses - pc0.Misses
		qm.PageCacheEvictions = pc1.Evictions - pc0.Evictions
		qm.PageCacheBytes = pc1.Bytes
	}
	if s.results != nil {
		rc1 := s.results.Stats()
		qm.ResultCacheHits = rc1.Hits - rc0.Hits
		qm.ResultCacheMisses = rc1.Misses - rc0.Misses
		qm.ResultCacheBytes = s.results.lru.Bytes()
	}
	return batches, qm, nil
}

// ExplainAnalyze executes the query to completion and renders the
// physical plan annotated with each operator's runtime metrics, followed
// by a query-level summary (memory-pool peak and metadata-cache hits).
func (df *DataFrame) ExplainAnalyze() (string, error) {
	_, qm, err := df.CollectWithMetrics()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("== Physical Plan (EXPLAIN ANALYZE) ==\n")
	sb.WriteString(exec.ExplainAnalyze(qm.Plan))
	sb.WriteString("== Query Summary ==\n")
	fmt.Fprintf(&sb, "rows_returned=%d, pool_reserved_peak=%d\n", qm.RowsReturned, qm.PoolReservedPeak)
	fmt.Fprintf(&sb, "cache: file_meta hits=%d misses=%d\n", qm.MetaHits, qm.MetaMisses)
	fmt.Fprintf(&sb, "page_cache: hits=%d misses=%d evictions=%d charged_bytes=%d\n",
		qm.PageCacheHits, qm.PageCacheMisses, qm.PageCacheEvictions, qm.PageCacheBytes)
	if df.session.results != nil {
		fmt.Fprintf(&sb, "result_cache: hit=%t hits=%d misses=%d charged_bytes=%d\n",
			qm.ResultCacheHit, qm.ResultCacheHits, qm.ResultCacheMisses, qm.ResultCacheBytes)
	}
	return sb.String(), nil
}

// CollectBatch executes and concatenates the result into a single batch.
func (df *DataFrame) CollectBatch() (*arrow.RecordBatch, error) {
	batches, err := df.Collect()
	if err != nil {
		return nil, err
	}
	return compute.ConcatBatches(df.Schema().ToArrow(), batches)
}

// Count executes and returns the output row count.
func (df *DataFrame) Count() (int64, error) {
	batches, err := df.Collect()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, b := range batches {
		n += int64(b.NumRows())
	}
	return n, nil
}

// Explain renders logical, optimized, and physical plans. Frames carrying
// a plan-cache hit hold only the optimized plan, which then fills both
// logical sections.
func (df *DataFrame) Explain() (string, error) {
	if df.err != nil {
		return "", df.err
	}
	var sb strings.Builder
	sb.WriteString("== Logical Plan ==\n")
	sb.WriteString(logical.Explain(df.plan))
	optimized := df.plan
	if !df.preOptimized {
		var err error
		optimized, err = df.session.OptimizePlan(df.plan)
		if err != nil {
			return "", fmt.Errorf("optimizing: %w", err)
		}
	}
	sb.WriteString("== Optimized Plan ==\n")
	sb.WriteString(logical.Explain(optimized))
	pp, err := df.session.lowerPlan(optimized)
	if err != nil {
		return "", fmt.Errorf("physical planning: %w", err)
	}
	sb.WriteString("== Physical Plan ==\n")
	sb.WriteString(exec.ExplainPhysical(pp))
	return sb.String(), nil
}

// Show writes a formatted table of results (up to maxRows) to w.
func (df *DataFrame) Show(w io.Writer, maxRows int) error {
	batch, err := df.CollectBatch()
	if err != nil {
		return err
	}
	return FormatBatch(w, batch, maxRows)
}

// FormatBatch renders a record batch as an aligned text table.
func FormatBatch(w io.Writer, batch *arrow.RecordBatch, maxRows int) error {
	if maxRows <= 0 || maxRows > batch.NumRows() {
		maxRows = batch.NumRows()
	}
	ncols := batch.NumCols()
	headers := make([]string, ncols)
	widths := make([]int, ncols)
	for c := 0; c < ncols; c++ {
		headers[c] = batch.Schema().Field(c).Name
		widths[c] = len(headers[c])
	}
	cells := make([][]string, maxRows)
	for r := 0; r < maxRows; r++ {
		cells[r] = make([]string, ncols)
		for c := 0; c < ncols; c++ {
			v := "NULL"
			if batch.Column(c).IsValid(r) {
				v = compute.ScalarToDisplay(batch.Column(c).GetScalar(r))
			}
			cells[r][c] = v
			if len(v) > widths[c] {
				widths[c] = len(v)
			}
		}
	}
	line := func(parts []string) string {
		out := make([]string, ncols)
		for c, p := range parts {
			out[c] = fmt.Sprintf("%-*s", widths[c], p)
		}
		return "| " + strings.Join(out, " | ") + " |"
	}
	sep := make([]string, ncols)
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for r := 0; r < maxRows; r++ {
		if _, err := fmt.Fprintln(w, line(cells[r])); err != nil {
			return err
		}
	}
	if maxRows < batch.NumRows() {
		fmt.Fprintf(w, "... %d more rows\n", batch.NumRows()-maxRows)
	}
	return nil
}
