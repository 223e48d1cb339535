package exec

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// writeSeqGPQ writes n sequential int64 ids into one GPQ file.
func writeSeqGPQ(t *testing.T, path string, n, rowGroupRows int) {
	t.Helper()
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false))
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < n; i++ {
		b.Append(int64(i))
	}
	if err := parquet.WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{b.Finish()})},
		parquet.WriterOptions{RowGroupRows: rowGroupRows}); err != nil {
		t.Fatal(err)
	}
}

func seqScan(t *testing.T, path string, partitions int) *TableScanExec {
	t.Helper()
	tbl, err := catalog.NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(catalog.ScanRequest{Limit: -1, Partitions: partitions, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewTableScanExec("t", res)
}

func idGreater(n int64) physical.PhysicalExpr {
	return &physical.BinaryExpr{
		Op:   logical.OpGt,
		L:    physical.NewColumnExpr(0, "id", arrow.Int64),
		R:    &physical.LiteralExpr{Value: arrow.Int64Scalar(n)},
		Type: arrow.Boolean,
	}
}

// filterThenProject is the two-stage chain the fusion tests drive:
// FilterExec(id > n) over in, under a projection of id.
func filterThenProject(in physical.ExecutionPlan, n int64) *ProjectionExec {
	filter := &FilterExec{Input: in, Predicate: idGreater(n)}
	return NewProjectionExec(filter, []physical.PhysicalExpr{physical.NewColumnExpr(0, "id", arrow.Int64)}, []string{"id"}, nil)
}

// morselLine matches the end of a scan line whose provider shares its
// chunks among its partitions.
var morselLine = regexp.MustCompile(` scheduler=morsel units=[1-9][0-9]*$`)

func sumRows(batches []*arrow.RecordBatch) int64 {
	var rows int64
	for _, b := range batches {
		rows += int64(b.NumRows())
	}
	return rows
}

// TestFusePipelinesShape pins the fusion pass output: a filter+projection
// chain over a multi-partition GPQ scan becomes one two-stage PipelineExec
// whose Children still expose the original operator chain down to the
// scan, which announces its own morsel scheduling; a lone fusable operator
// and a lone morsel scan stay unwrapped.
func TestFusePipelinesShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 800, 100)

	scan := seqScan(t, path, 2)
	if !morselLine.MatchString(scan.String()) {
		t.Fatalf("scan line %q should end in the scan's morsel scheduling", scan.String())
	}
	if lone, err := fusePipelines(scan); err != nil || lone != scan {
		t.Fatalf("lone morsel scan rewritten to %T (err %v)", lone, err)
	}

	chain := filterThenProject(scan, 99)
	fused, err := fusePipelines(chain)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := fused.(*PipelineExec)
	if !ok {
		t.Fatalf("fused root = %T, want *PipelineExec", fused)
	}
	if seg.String() != "PipelineExec: stages=2" {
		t.Fatalf("segment line = %q", seg.String())
	}
	// EXPLAIN sees the original chain nested under the segment.
	proj, ok := seg.Children()[0].(*ProjectionExec)
	if !ok {
		t.Fatalf("segment child = %T, want *ProjectionExec", seg.Children()[0])
	}
	fi, ok := proj.Input.(*FilterExec)
	if !ok {
		t.Fatalf("projection input = %T, want *FilterExec", proj.Input)
	}
	if fi.Input != scan || seg.Source != scan {
		t.Fatalf("filter input = %T, segment source = %T, want the scan", fi.Input, seg.Source)
	}

	// An aggregate in any mode is a push stage: at one partition the scan
	// feeds filter and Single aggregate in one loop.
	single := sumCountByK(t, &FilterExec{Input: seqScan(t, path, 1), Predicate: idGreater(99)}, SingleAgg, 0)
	fused, err = fusePipelines(single)
	if err != nil {
		t.Fatal(err)
	}
	if seg, ok := fused.(*PipelineExec); !ok || len(seg.Stages) != 2 || seg.top() != single {
		t.Fatalf("filter -> Single aggregate fused to\n%s", ExplainPhysical(fused))
	}

	// A single fusable op is its own one-stage loop: no segment, with or
	// without morsels underneath.
	for _, parts := range []int{1, 2} {
		lone := &FilterExec{Input: seqScan(t, path, parts), Predicate: idGreater(99)}
		got, err := fusePipelines(lone)
		if err != nil {
			t.Fatal(err)
		}
		if got != lone {
			t.Fatalf("p%d: lone filter rewritten to %T", parts, got)
		}
	}
}

// TestFusedMatchesUnfused executes the same chain as one fused segment and
// as a stack of operators each running its own one-stage loop, and
// requires identical results plus clean metric invariants on both.
func TestFusedMatchesUnfused(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 4000, 100)

	build := func() physical.ExecutionPlan {
		return filterThenProject(seqScan(t, path, 4), 999)
	}
	fusedPlan, err := fusePipelines(build())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fusedPlan.(*PipelineExec); !ok {
		t.Fatalf("expected fused plan, got %T", fusedPlan)
	}
	for name, plan := range map[string]physical.ExecutionPlan{"unfused": build(), "fused": fusedPlan} {
		batches, err := CollectPlan(physical.NewExecContext(), plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := sumRows(batches)
		if rows != 3000 {
			t.Errorf("%s: rows = %d, want 3000", name, rows)
		}
		if err := CheckPlanMetrics(plan, rows); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFusedGlobalLimitStopsSource checks that a limit fusing into the
// loop stops the morsel/source drain early: the scan must not read all
// row groups to satisfy a small fetch.
func TestFusedGlobalLimitStopsSource(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 8000, 100)

	scan := seqScan(t, path, 1)
	chain := &GlobalLimitExec{
		Input: &FilterExec{Input: scan, Predicate: idGreater(-1)},
		Skip:  0, Fetch: 50,
	}
	plan, err := fusePipelines(chain)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := plan.(*PipelineExec)
	if !ok || len(seg.Stages) != 2 {
		t.Fatalf("limit chain should fuse into 2 stages, got %T", plan)
	}
	batches, err := CollectPlan(physical.NewExecContext(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rows := sumRows(batches); rows != 50 {
		t.Fatalf("rows = %d, want 50", rows)
	}
	if err := CheckPlanMetrics(plan, 50); err != nil {
		t.Error(err)
	}
	if scanned := scan.Metrics().OutputRows(); scanned >= 8000 {
		t.Errorf("fused limit did not stop the source: scan emitted %d rows", scanned)
	}
}

// TestMorselCancellationMidDrain opens every worker of a fused segment
// over a morsel-driven scan, pulls one batch each, then cancels the query and
// closes mid-drain. No readahead producer or worker goroutine may
// survive (run under -race and -tags sanitize in CI).
func TestMorselCancellationMidDrain(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 6400, 100)

	scan := seqScan(t, path, 4)
	plan, err := fusePipelines(filterThenProject(scan, -1))
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	ctx := physical.NewExecContext()
	ctx.Ctx = cctx

	n := plan.Partitions()
	streams := make([]physical.Stream, n)
	for p := 0; p < n; p++ {
		s, err := plan.Execute(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		streams[p] = s
		if _, err := s.Next(); err == io.EOF {
			t.Fatalf("p%d: EOF before any batch", p)
		} else if err != nil {
			t.Fatalf("p%d first batch: %v", p, err)
		}
	}
	cancel()
	for _, s := range streams {
		for {
			_, err := s.Next()
			if err == io.EOF {
				break // a worker that drained before the cancel landed
			}
			if err != nil {
				break // cancellation error
			}
		}
		s.Close()
	}
}

// TestMorselSchedulingBalancesSkew builds a skewed layout — 80 small
// single-row-group files followed by one fat file with two 30k-row
// groups — and compares worker makespan under a static deal vs the
// provider's shared chunk cursor. A static row-balanced deal in file
// order parks each fat row group on a partition already loaded with 20k
// rows of small files (50k-row stragglers). The cursor comparison drives
// the real partition streams under a deterministic worker simulation:
// the worker with the fewest rows so far pulls the next batch, and a
// stream claims a chunk only when its last one is drained. Dynamic
// claiming lets idle workers absorb the small files, dropping the
// makespan toward one fat chunk (~35k rows).
func TestMorselSchedulingBalancesSkew(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	dir := t.TempDir()
	var files []string
	var groupRows []int64
	for f := 0; f < 80; f++ {
		p := filepath.Join(dir, fmt.Sprintf("small-%02d.gpq", f))
		writeSeqGPQ(t, p, 1000, 1000)
		files = append(files, p)
		groupRows = append(groupRows, 1000)
	}
	fat := filepath.Join(dir, "zfat.gpq")
	writeSeqGPQ(t, fat, 60_000, 30_000)
	files = append(files, fat)
	groupRows = append(groupRows, 30_000, 30_000)

	tbl, err := catalog.NewGPQTable(files)
	if err != nil {
		t.Fatal(err)
	}

	// Static makespan proxy: each row group dealt in file order to the
	// least-loaded of four partitions.
	staticRows := make([]int64, 4)
	for _, r := range groupRows {
		staticRows[slices.Index(staticRows, slices.Min(staticRows))] += r
	}
	staticMax := slices.Max(staticRows)
	if staticMax < 45_000 {
		t.Fatalf("static dealing unexpectedly balanced: %v", staticRows)
	}

	res, err := tbl.Scan(catalog.ScanRequest{Partitions: 4, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]catalog.Stream, res.Partitions)
	for p := range streams {
		if streams[p], err = res.Open(p); err != nil {
			t.Fatal(err)
		}
	}
	clocks := make([]int64, len(streams))
	for live := len(streams); live > 0; {
		w := -1
		for i, s := range streams {
			if s != nil && (w < 0 || clocks[i] < clocks[w]) {
				w = i
			}
		}
		b, err := streams[w].Next()
		if err == io.EOF {
			streams[w].Close()
			streams[w] = nil
			live--
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		clocks[w] += int64(b.NumRows())
	}
	var total int64
	for _, c := range clocks {
		total += c
	}
	if total != 140_000 {
		t.Fatalf("simulated workers read %d rows, want 140000 (%v)", total, clocks)
	}
	if got := res.Runtime.RowGroupsScanned.Load(); got != 82 {
		t.Fatalf("row groups scanned = %d, want 82", got)
	}
	if morselMax := slices.Max(clocks); morselMax >= staticMax {
		t.Errorf("morsel makespan %d rows not better than static %d (clocks=%v static=%v)",
			morselMax, staticMax, clocks, staticRows)
	}

	// Executing the scan delivers every row exactly once across
	// concurrently draining workers.
	res2, err := tbl.Scan(catalog.ScanRequest{Partitions: 4, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	scan := NewTableScanExec("skew", res2)
	ctx := physical.NewExecContext()
	var wg sync.WaitGroup
	workerRows := make([]int64, 4)
	for p := 0; p < 4; p++ {
		s, err := scan.Execute(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, s physical.Stream) {
			defer wg.Done()
			defer s.Close()
			for {
				b, err := s.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				workerRows[p] += int64(b.NumRows())
			}
		}(p, s)
	}
	wg.Wait()
	var morselTotal int64
	for _, r := range workerRows {
		morselTotal += r
	}
	if morselTotal != 140_000 {
		t.Fatalf("morsel workers delivered %d rows, want 140000 (%v)", morselTotal, workerRows)
	}
	if got := scan.Metrics().Snapshot().ExtraValue("row_groups_scanned"); got != 82 {
		t.Fatalf("row_groups_scanned = %d, want 82", got)
	}
}

// TestMorselScanUnderExchange puts a morsel scan directly under a
// RepartitionExec — no pushable stage, so no PipelineExec — and checks
// that the exchange's producers drain the scan's one cursor: every row
// arrives once and every row group is scanned once.
func TestMorselScanUnderExchange(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeSeqGPQ(t, path, 4000, 100)

	scan := seqScan(t, path, 4)
	if !morselLine.MatchString(scan.String()) {
		t.Fatalf("4-partition GPQ scan should share its chunks: %q", scan.String())
	}
	plan, err := fusePipelines(&RepartitionExec{Input: scan, Scheme: RoundRobinPartitioning, NumParts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ExplainPhysical(plan), "PipelineExec") {
		t.Fatalf("scan under an exchange needs no segment:\n%s", ExplainPhysical(plan))
	}
	batches, err := CollectPlan(physical.NewExecContext(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rows := sumRows(batches); rows != 4000 {
		t.Fatalf("rows = %d, want 4000", rows)
	}
	seen := map[int64]bool{}
	for _, b := range batches {
		ids := b.Column(0).(*arrow.Int64Array)
		for i := 0; i < ids.Len(); i++ {
			seen[ids.Value(i)] = true
		}
	}
	if len(seen) != 4000 {
		t.Fatalf("distinct ids = %d, want 4000", len(seen))
	}
	if got := scan.Metrics().Snapshot().ExtraValue("row_groups_scanned"); got != 40 {
		t.Errorf("row_groups_scanned = %d, want 40", got)
	}
	if err := CheckPlanMetrics(plan, 4000); err != nil {
		t.Error(err)
	}
}

// TestExchangeBufferDepthDerivesFromPartitions pins the derived default:
// unset buffers scale with target_partitions but never shrink below the
// fixed default.
func TestExchangeBufferDepthDerivesFromPartitions(t *testing.T) {
	ctx := physical.NewExecContext()
	ctx.TargetPartitions = 16
	if got := ctx.ExchangeBufferDepth(); got != 16 {
		t.Errorf("derived depth = %d, want 16", got)
	}
	ctx.TargetPartitions = 2
	if got := ctx.ExchangeBufferDepth(); got != physical.DefaultExchangeBuffer {
		t.Errorf("small-parallelism depth = %d, want %d", got, physical.DefaultExchangeBuffer)
	}
	ctx.ExchangeBuffer = 3
	ctx.TargetPartitions = 16
	if got := ctx.ExchangeBufferDepth(); got != 3 {
		t.Errorf("explicit depth = %d, want 3", got)
	}
}

// pushInput builds a one-partition source of nBatches batches of
// batchRows rows each: id counts up from 0 and k = id % mod.
func pushInput(nBatches, batchRows int, mod int64) *ValuesExec {
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false), arrow.NewField("k", arrow.Int64, false))
	batches := make([]*arrow.RecordBatch, nBatches)
	for i := range batches {
		ids := make([]int64, batchRows)
		ks := make([]int64, batchRows)
		for j := range ids {
			ids[j] = int64(i*batchRows + j)
			ks[j] = ids[j] % mod
		}
		batches[i] = arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(ids), arrow.NewInt64(ks)})
	}
	return NewValuesExec(schema, batches)
}

// sumCountByK builds HashAggregateExec(mode) computing sum(id), count(*)
// grouped by column 0 or 1 of its input.
func sumCountByK(t *testing.T, in physical.ExecutionPlan, mode AggMode, groupCol int) *HashAggregateExec {
	t.Helper()
	sum, _ := testReg.Agg("sum")
	count, _ := testReg.Agg("count")
	sumSpec, err := NewAggSpec(sum, "s", []physical.PhysicalExpr{physical.NewColumnExpr(0, "id", arrow.Int64)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	countSpec, err := NewAggSpec(count, "c", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewHashAggregateExec(in, mode,
		[]physical.PhysicalExpr{physical.NewColumnExpr(groupCol, "k", arrow.Int64)}, []string{"k"},
		[]AggSpec{sumSpec, countSpec})
}

// TestPushableAloneMatchesFused runs every Pushable operator once on its
// own through Execute and once as a stage of a PipelineExec over the same
// input. Both go through the one driver, so rows and batch boundaries must
// be identical, and the metrics of either tree must satisfy the plan
// invariants with output_rows counted exactly once per operator.
func TestPushableAloneMatchesFused(t *testing.T) {
	id := physical.NewColumnExpr(0, "id", arrow.Int64)
	cases := []struct {
		name      string
		build     func(in physical.ExecutionPlan) physical.ExecutionPlan
		batches   []int // expected output batch sizes
		first     string
		batchRows int // the ExecContext's, when set
	}{
		{"filter", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &FilterExec{Input: in, Predicate: idGreater(449)}
		}, []int{50, 100, 100, 100, 100, 100}, "450|2|", 0},
		{"projection", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return NewProjectionExec(in, []physical.PhysicalExpr{id}, []string{"id"}, nil)
		}, []int{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, "0|", 0},
		{"local-limit", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &LocalLimitExec{Input: in, Fetch: 250}
		}, []int{100, 100, 50}, "0|0|", 0},
		{"local-limit-zero", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &LocalLimitExec{Input: in, Fetch: 0}
		}, nil, "", 0},
		{"global-limit-skip", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &GlobalLimitExec{Input: in, Skip: 150, Fetch: -1}
		}, []int{50, 100, 100, 100, 100, 100, 100, 100, 100}, "150|3|", 0},
		{"global-limit-skip-fetch", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return &GlobalLimitExec{Input: in, Skip: 150, Fetch: 120}
		}, []int{50, 70}, "150|3|", 0},
		{"partial-agg", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return sumCountByK(t, in, PartialAgg, 1)
		}, []int{7}, "", 0},
		{"single-agg", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return sumCountByK(t, in, SingleAgg, 1)
		}, []int{7}, wantSumCount(1000, 7)[0], 0},
		// The stage merges the partial states of a partial aggregate that
		// runs as the segment's source.
		{"final-agg", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			return sumCountByK(t, sumCountByK(t, in, PartialAgg, 1), FinalAgg, 0)
		}, []int{7}, wantSumCount(1000, 7)[0], 0},
		// Grouped by the ascending id, the table reaches 256 groups in the
		// third, sixth and ninth batch, and each time emits every group but
		// the one the batch ends in: 299, 300 and 300 groups, then 101 at
		// Flush, cut to 256-row batches.
		{"ordered-agg", func(in physical.ExecutionPlan) physical.ExecutionPlan {
			agg := sumCountByK(t, in, SingleAgg, 0)
			agg.InputOrdered = true
			return agg
		}, []int{256, 43, 256, 44, 256, 44, 101}, "0|0|1|", 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want int64
			for _, n := range tc.batches {
				want += int64(n)
			}
			alone := tc.build(pushInput(10, 100, 7))
			stage := tc.build(pushInput(10, 100, 7))
			fused := &PipelineExec{Source: stage.Children()[0], Stages: []physical.ExecutionPlan{stage}}

			var rendered [2][]string
			for i, plan := range []physical.ExecutionPlan{alone, fused} {
				ctx := physical.NewExecContext()
				ctx.BatchRows = tc.batchRows
				batches, err := CollectPlan(ctx, plan)
				if err != nil {
					t.Fatalf("%T: %v", plan, err)
				}
				var sizes []int
				for _, b := range batches {
					sizes = append(sizes, b.NumRows())
					rendered[i] = append(rendered[i], rowsAsStrings(b)...)
				}
				if fmt.Sprint(sizes) != fmt.Sprint(tc.batches) {
					t.Errorf("%T: batch sizes %v, want %v", plan, sizes, tc.batches)
				}
				if err := CheckPlanMetrics(plan, want); err != nil {
					t.Errorf("%T: %v", plan, err)
				}
			}
			if fmt.Sprint(rendered[0]) != fmt.Sprint(rendered[1]) {
				t.Errorf("alone and fused rows differ:\n%v\nvs\n%v", rendered[0], rendered[1])
			}
			if tc.first != "" && (len(rendered[0]) == 0 || rendered[0][0] != tc.first) {
				t.Errorf("first row = %v, want %q", rendered[0][:min(1, len(rendered[0]))], tc.first)
			}
			if got := stage.(physical.MetricsProvider).Metrics().OutputRows(); got != want {
				t.Errorf("fused stage output_rows = %d, want %d", got, want)
			}
		})
	}
}

// TestFusedFlushCascadesOneBatchPerNext fuses a projection above a Single
// aggregate whose Flush emits ten batches: each batch passes through the
// projection when the consumer asks for it, so the stage above never holds
// the output of every group at once.
func TestFusedFlushCascadesOneBatchPerNext(t *testing.T) {
	agg := sumCountByK(t, pushInput(10, 100, 7), SingleAgg, 0)
	proj := NewProjectionExec(agg, []physical.PhysicalExpr{physical.NewColumnExpr(0, "k", arrow.Int64)}, []string{"k"}, nil)
	fused := &PipelineExec{Source: agg.Input, Stages: []physical.ExecutionPlan{agg, proj}}
	ctx := physical.NewExecContext()
	ctx.BatchRows = 100
	s, err := fused.Execute(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rows, batches int64
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += int64(b.NumRows())
		batches++
		if got := proj.Metrics().OutputRows(); got != rows {
			t.Fatalf("after batch %d the projection has produced %d rows, the consumer %d", batches, got, rows)
		}
	}
	if rows != 1000 || batches != 10 {
		t.Errorf("got %d rows in %d batches, want 1000 in 10", rows, batches)
	}
}

// lonePartialAgg drains a partial aggregate on its own through Execute —
// no segment, no planner — and returns the partial-state batches it
// emitted plus their merge through a FinalAgg.
func lonePartialAgg(t *testing.T, ctx *physical.ExecContext, partial *HashAggregateExec) (emitted []*arrow.RecordBatch, merged *arrow.RecordBatch) {
	t.Helper()
	emitted, err := CollectPlan(ctx, partial)
	if err != nil {
		t.Fatal(err)
	}
	final := sumCountByK(t, NewValuesExec(partial.Schema(), emitted), FinalAgg, 0)
	merged, err = CollectBatch(physical.NewExecContext(), final)
	if err != nil {
		t.Fatal(err)
	}
	return emitted, merged
}

// wantSumCount is sum(id), count(*) by id % mod over ids [0, n).
func wantSumCount(n, mod int64) []string {
	sums := make([]int64, mod)
	counts := make([]int64, mod)
	for id := int64(0); id < n; id++ {
		sums[id%mod] += id
		counts[id%mod]++
	}
	out := make([]string, mod)
	for k := range out {
		out[k] = fmt.Sprintf("%d|%d|%d|", k, sums[k], counts[k])
	}
	return out
}

// TestLonePartialAggEarlyFlushUnderPressure gives a partial aggregate a
// pool too small for its group table: it must flush its state downstream
// and start over instead of failing (a partial aggregate never spills),
// stay within the pool, hand the reservation back, and lose nothing.
func TestLonePartialAggEarlyFlushUnderPressure(t *testing.T) {
	const limit = 64 << 10
	pool := memory.NewGreedyPool(limit)
	ctx := physical.NewExecContext()
	ctx.Pool = pool
	partial := sumCountByK(t, pushInput(24, 500, 3000), PartialAgg, 1)

	emitted, merged := lonePartialAgg(t, ctx, partial)
	if rows := sumRows(emitted); rows <= 3000 {
		t.Fatalf("emitted %d partial rows for 3000 groups: the table never flushed early", rows)
	}
	sameRows(t, merged, wantSumCount(12000, 3000), false)
	if peak := pool.ReservedPeak(); peak > limit {
		t.Errorf("pool peak %d exceeds its limit %d", peak, limit)
	}
	if held := pool.Reserved(); held != 0 {
		t.Errorf("reservation not released: %d bytes still held", held)
	}
	if err := CheckPlanMetrics(partial, sumRows(emitted)); err != nil {
		t.Error(err)
	}
}

// TestLonePartialAggFlushesEveryBatch gives the partial aggregate a pool
// below the smallest table's footprint: every reservation fails, so state
// is emitted after each input batch, no flush holds more than one batch's
// groups, and the re-emitted groups merge back to the exact result.
func TestLonePartialAggFlushesEveryBatch(t *testing.T) {
	partial := sumCountByK(t, pushInput(10, 100, 40), PartialAgg, 1)
	ctx := physical.NewExecContext()
	ctx.Pool = memory.NewGreedyPool(512)

	emitted, merged := lonePartialAgg(t, ctx, partial)
	// Every 100-row batch carries all 40 groups.
	if len(emitted) != 10 {
		t.Fatalf("emitted %d batches, want one flush per input batch (10)", len(emitted))
	}
	for i, b := range emitted {
		if b.NumRows() != 40 {
			t.Errorf("flush %d holds %d groups, want 40", i, b.NumRows())
		}
	}
	if n := partial.Metrics().Snapshot().ExtraValue("early_flushes"); n != 10 {
		t.Errorf("early_flushes = %d, want 10", n)
	}
	sameRows(t, merged, wantSumCount(1000, 40), false)
}
