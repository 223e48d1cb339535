package exec

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// TestSpillMergeCancel cancels a sort while it merges spilled runs, alone
// and under a merge of two partitions. The next read fails with the
// cancellation, and after Close no spill file, reservation or goroutine is
// left.
func TestSpillMergeCancel(t *testing.T) {
	for _, parts := range []int{1, 2} {
		func() {
			defer testutil.CheckNoGoroutineLeak(t)()
			plan, err := logical.NewBuilder(testReg).Scan("big", bigTableBatches(t, 5000, 250)).
				Sort(logical.SortAsc(logical.Col("k"))).Build()
			if err != nil {
				t.Fatal(err)
			}
			pp, err := CreatePhysicalPlan(plan, &PlannerConfig{TargetPartitions: parts, Reg: testReg})
			if err != nil {
				t.Fatal(err)
			}
			spillDir := t.TempDir()
			dm := memory.NewDiskManager(spillDir)
			defer dm.Close()
			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := physical.NewExecContext()
			ctx.Ctx = cctx
			ctx.Pool = memory.NewGreedyPool(8 << 10)
			ctx.Disk = dm
			ctx.BatchRows = 100

			s, err := pp.Execute(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			switch _, err := s.Next(); {
			case err == io.EOF:
				t.Fatalf("p%d: the merge ended before its first batch", parts)
			case err != nil:
				t.Fatalf("p%d: first batch: %v", parts, err)
			}
			if files, _ := os.ReadDir(spillDir); len(files) < 3 {
				t.Fatalf("p%d: %d spill files while merging, want at least 3", parts, len(files))
			}
			cancel()
			// A cancelled merge must not end like a complete one.
			if _, err := s.Next(); err == io.EOF || !errors.Is(err, context.Canceled) {
				t.Errorf("p%d: read after cancel: %v, want context.Canceled", parts, err)
			}
			s.Close()
			if files, _ := os.ReadDir(spillDir); len(files) != 0 {
				t.Errorf("p%d: %d spill files left after Close", parts, len(files))
			}
			if got := ctx.Pool.Reserved(); got != 0 {
				t.Errorf("p%d: %d bytes still reserved", parts, got)
			}
		}()
	}
}

// topKMerge is ORDER BY o, u LIMIT k over src: a top-k in each of four
// round-robin partitions under a sort-preserving merge.
func topKMerge(src physical.ExecutionPlan, k int64) *SortPreservingMergeExec {
	keys := []SortSpec{
		{Expr: physical.NewColumnExpr(2, "o", arrow.Int64)},
		{Expr: physical.NewColumnExpr(3, "u", arrow.Int64)},
	}
	dealt := &RepartitionExec{Input: src, Scheme: RoundRobinPartitioning, NumParts: 4}
	return &SortPreservingMergeExec{Keys: keys, Input: &TopKExec{Input: dealt, Keys: keys, K: k}}
}

// TestTopKMergeCancel cancels a merge over four TopKExec partitions while
// it primes them (every top-k still reading the exchange) and while it
// emits. Either way the query fails with the cancellation and leaves no
// goroutine or reservation behind.
func TestTopKMergeCancel(t *testing.T) {
	rows := randomWRows(rand.New(rand.NewSource(8)), 4000)
	batches, err := CollectPlan(physical.NewExecContext(), wScan(t, rows))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("priming", func(t *testing.T) {
		defer testutil.CheckNoGoroutineLeak(t)()
		src := &gatedSource{batches: batches, drained: make(chan struct{})}
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := physical.NewExecContext()
		ctx.Ctx = cctx
		var err error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s physical.Stream
			if s, err = topKMerge(src, 10).Execute(ctx, 0); err == nil {
				s.Close()
			}
		}()
		<-src.drained
		cancel()
		wg.Wait()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("merge primed over a cancelled query: %v, want context.Canceled", err)
		}
		if got := ctx.Pool.Reserved(); got != 0 {
			t.Errorf("%d bytes still reserved", got)
		}
	})

	t.Run("output", func(t *testing.T) {
		defer testutil.CheckNoGoroutineLeak(t)()
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := physical.NewExecContext()
		ctx.Ctx = cctx
		ctx.BatchRows = 64
		s, err := topKMerge(wScan(t, rows), 1000).Execute(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		b, err := s.Next()
		switch {
		case err == io.EOF:
			t.Fatal("the merge ended before its first batch")
		case err != nil:
			t.Fatal(err)
		}
		if b.NumRows() != 64 {
			t.Fatalf("first batch has %d rows, want 64", b.NumRows())
		}
		cancel()
		// A cancelled merge must not end like a complete one.
		if _, err := s.Next(); err == io.EOF || !errors.Is(err, context.Canceled) {
			t.Errorf("read after cancel: %v, want context.Canceled", err)
		}
		if got := ctx.Pool.Reserved(); got != 0 {
			t.Errorf("%d bytes still reserved", got)
		}
	})
}

// closeCounter is a ValuesExec whose streams count their Close calls.
type closeCounter struct {
	*ValuesExec
	closes int
}

func (c *closeCounter) Execute(ctx *physical.ExecContext, p int) (physical.Stream, error) {
	s, err := c.ValuesExec.Execute(ctx, p)
	if err != nil {
		return nil, err
	}
	return NewFuncStream(s.Schema(), s.Next, func() {
		c.closes++
		s.Close()
	}), nil
}

// TestSortUnencodableKeyClosesInput sorts on an interval column, a type
// the row format cannot encode, so Execute fails after it opened its
// input. It must close that input.
func TestSortUnencodableKeyClosesInput(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("iv", arrow.Interval, false))
	batch := arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInterval(make([]arrow.MonthDayMicro, 3), nil)})
	in := &closeCounter{ValuesExec: NewValuesExec(schema, []*arrow.RecordBatch{batch})}
	sort := &ExternalSortExec{Input: in, Keys: []SortSpec{{Expr: physical.NewColumnExpr(0, "iv", arrow.Interval)}}}
	if s, err := sort.Execute(physical.NewExecContext(), 0); err == nil {
		s.Close()
		t.Fatal("sort on an interval key opened a stream, want the key encoder's error")
	}
	if in.closes != 1 {
		t.Fatalf("input closed %d times after the failed Execute, want 1", in.closes)
	}
}
