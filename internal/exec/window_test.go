package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// rowNumberWindow is row_number() OVER (PARTITION BY k1 ORDER BY o, u)
// over an input with wSchema, hash-distributed over parts partitions.
func rowNumberWindow(input physical.ExecutionPlan, parts int, topK int64) *WindowExec {
	col := func(i int) physical.PhysicalExpr {
		f := wSchema.Field(i)
		return physical.NewColumnExpr(i, f.Name, f.Type)
	}
	spec := WindowSpec{Name: "row_number", OutName: "rn", OutType: arrow.Int64,
		PartitionBy: []physical.PhysicalExpr{col(0)},
		OrderBy:     []SortSpec{{Expr: col(2)}, {Expr: col(3)}}}
	if parts > 1 {
		input = &RepartitionExec{Input: input, Scheme: HashPartitioning, HashExprs: spec.PartitionBy, NumParts: parts}
	}
	w := NewWindowExec(input, []WindowSpec{spec}, testReg)
	w.TopK = topK
	return w
}

// wScan scans the rows as one partition of several batches.
func wScan(t *testing.T, rows []wrow) *TableScanExec {
	t.Helper()
	res, err := wTable(t, rows).Scan(catalog.ScanRequest{Limit: catalog.NoLimit, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewTableScanExec("w", res)
}

// gatedSource emits its batches, announces it, then blocks until the query
// is cancelled: whatever consumes it is caught mid-stream.
type gatedSource struct {
	batches []*arrow.RecordBatch
	drained chan struct{}
	once    sync.Once
}

func (g *gatedSource) Schema() *arrow.Schema                { return wSchema }
func (g *gatedSource) Children() []physical.ExecutionPlan   { return nil }
func (g *gatedSource) Partitions() int                      { return 1 }
func (g *gatedSource) OutputOrdering() []physical.SortField { return nil }
func (g *gatedSource) String() string                       { return "gatedSource" }
func (g *gatedSource) WithChildren([]physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return g, nil
}
func (g *gatedSource) Execute(ctx *physical.ExecContext, _ int) (physical.Stream, error) {
	i := 0
	return NewFuncStream(wSchema, func() (*arrow.RecordBatch, error) {
		if i < len(g.batches) {
			i++
			return g.batches[i-1], nil
		}
		g.once.Do(func() { close(g.drained) })
		<-ctx.Ctx.Done()
		return nil, ctx.Ctx.Err()
	}, nil), nil
}

// TestPartitionedWindowCancellation cancels a 4-partition window while
// every partition is still consuming the hash exchange. Each partition must
// fail with the cancellation, give its reservation back and leave no
// goroutine behind, in both the sorting and the top-k mode.
func TestPartitionedWindowCancellation(t *testing.T) {
	for _, topK := range []int64{NoTopK, 2} {
		t.Run(fmt.Sprintf("topk=%d", topK), func(t *testing.T) {
			defer testutil.CheckNoGoroutineLeak(t)()
			rows := randomWRows(rand.New(rand.NewSource(3)), 4000)
			batches, err := CollectPlan(physical.NewExecContext(), wScan(t, rows))
			if err != nil {
				t.Fatal(err)
			}
			src := &gatedSource{batches: batches, drained: make(chan struct{})}
			const parts = 4
			w := rowNumberWindow(src, parts, topK)

			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := physical.NewExecContext()
			ctx.Ctx = cctx
			errs := make([]error, parts)
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					s, err := w.Execute(ctx, p)
					if err != nil {
						errs[p] = err
						return
					}
					defer s.Close()
					_, errs[p] = s.Next()
				}(p)
			}
			<-src.drained
			cancel()
			wg.Wait()
			for p, err := range errs {
				if err == nil || err == io.EOF {
					t.Errorf("partition %d: got %v, want the cancellation error", p, err)
				}
			}
			if got := ctx.Pool.Reserved(); got != 0 {
				t.Errorf("%d bytes still reserved after cancellation", got)
			}
		})
	}
}

// TestWindowMemoryBudget: the operator charges what it buffers. A full
// window over more rows than the pool allows fails with the typed
// exhaustion error (windows do not spill) and returns everything it took;
// the same window limited to the top row of each group keeps only
// groups x k rows and fits.
func TestWindowMemoryBudget(t *testing.T) {
	rows := randomWRows(rand.New(rand.NewSource(4)), 6000)
	for _, parts := range []int{1, 2} {
		run := func(topK int64) (int, error, memory.Pool) {
			ctx := physical.NewExecContext()
			ctx.Pool = memory.NewGreedyPool(32 << 10)
			out, err := CollectBatch(ctx, rowNumberWindow(wScan(t, rows), parts, topK))
			if err != nil {
				return 0, err, ctx.Pool
			}
			return out.NumRows(), nil, ctx.Pool
		}
		_, err, pool := run(NoTopK)
		var exhausted *memory.ErrResourcesExhausted
		if !errors.As(err, &exhausted) {
			t.Fatalf("p%d full window under a 32 KiB pool: got %v, want ErrResourcesExhausted", parts, err)
		}
		if exhausted.Consumer != "WindowExec" {
			t.Errorf("p%d exhaustion charged to %q", parts, exhausted.Consumer)
		}
		if got := pool.Reserved(); got != 0 {
			t.Errorf("p%d: %d bytes still reserved after the failure", parts, got)
		}
		n, err, pool := run(1)
		if err != nil {
			t.Fatalf("p%d top-1 window under the same pool: %v", parts, err)
		}
		if n != 6 { // k1 has five values and NULL
			t.Errorf("p%d top-1 window returned %d rows, want 6", parts, n)
		}
		if got := pool.Reserved(); got != 0 {
			t.Errorf("p%d: %d bytes still reserved after the top-k run", parts, got)
		}
		if pool.ReservedPeak() == 0 {
			t.Errorf("p%d: top-k run reserved nothing", parts)
		}
	}
}

// TestWindowReservationCoversEvaluation: beyond the buffered input, the
// reservation carries the ordering, an aggregate's slot and value buffers
// and the finished output column.
func TestWindowReservationCoversEvaluation(t *testing.T) {
	rows := randomWRows(rand.New(rand.NewSource(6)), 6000)
	input, err := CollectBatch(physical.NewExecContext(), wScan(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	pp := windowPhysicalPlan(t, `SELECT u, sum(v) OVER (PARTITION BY k1 ORDER BY o, u) FROM w`, wTable(t, rows), 1, false)
	ctx := physical.NewExecContext()
	ctx.Pool = memory.NewGreedyPool(1 << 30)
	if _, err := CollectBatch(ctx, pp); err != nil {
		t.Fatal(err)
	}
	n := int64(len(rows))
	// offsets, split and order per row; slot, one value and one output per row.
	floor := batchBytes(input) + n*(8+8+4) + n*(4+8+8)
	if peak := ctx.Pool.ReservedPeak(); peak < floor {
		t.Errorf("reservation peak %d, want at least %d", peak, floor)
	}
	if got := ctx.Pool.Reserved(); got != 0 {
		t.Errorf("%d bytes still reserved", got)
	}
}

// TestMergeOverFailingPartition: a sort-preserving merge primes all its
// inputs before it returns. When one of them fails while its siblings still
// wait on the exchange they share (here: one window partition runs out of
// budget), the merge must fail with that error instead of hanging on the
// exchange the failed partition no longer drains.
func TestMergeOverFailingPartition(t *testing.T) {
	before := testutil.SettledGoroutines()
	// One partition key: every row lands in the same window partition,
	// which fails; the other one waits for an end of input.
	rows := randomWRows(rand.New(rand.NewSource(5)), 6000)
	for i := range rows {
		rows[i].k1 = nil
	}
	byU := []SortSpec{{Expr: physical.NewColumnExpr(3, "u", arrow.Int64)}}
	plan := &SortPreservingMergeExec{Keys: byU,
		Input: &ExternalSortExec{Keys: byU, Input: rowNumberWindow(wScan(t, rows), 2, NoTopK)}}
	// A merge stuck on the exchange is only released by the query deadline.
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx := physical.NewExecContext()
	ctx.Ctx = cctx
	ctx.Pool = memory.NewGreedyPool(32 << 10)
	start := time.Now()
	_, err := CollectPlan(ctx, plan)
	var exhausted *memory.ErrResourcesExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("got %v, want ErrResourcesExhausted", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("merge over a failed partition hung for %s", waited)
	}
	if got := ctx.Pool.Reserved(); got != 0 {
		t.Errorf("%d bytes still reserved", got)
	}
	// The exchange producer finishes reading its input after both
	// consumers left; give it the time, then nothing may remain.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
