package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// countingPlan wraps an ExecutionPlan and counts Execute calls.
type countingPlan struct {
	physical.ExecutionPlan
	executes atomic.Int64
}

func (c *countingPlan) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	c.executes.Add(1)
	return c.ExecutionPlan.Execute(ctx, partition)
}

// TestHashJoinSharedBuildOnce pins the CollectLeft build contract after
// the mutex-around-CollectPlan was replaced with sync.Once: concurrent
// probe partitions must trigger exactly one build of the left side and
// all see the same table.
func TestHashJoinSharedBuildOnce(t *testing.T) {
	users, orders := usersAndOrders(t)
	uScan, err := users.Scan(catalog.ScanRequest{Partitions: 1, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	oScan, err := orders.Scan(catalog.ScanRequest{Partitions: 2, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	left := &countingPlan{ExecutionPlan: NewTableScanExec("users", uScan)}
	right := NewTableScanExec("orders", oScan)
	j := NewHashJoinExec(left, right, []JoinOn{{
		L: physical.NewColumnExpr(0, "uid", arrow.Int64),
		R: physical.NewColumnExpr(0, "ouid", arrow.Int64),
	}}, nil, logical.InnerJoin, CollectLeft)

	ctx := physical.NewExecContext()
	parts := j.Partitions()
	var wg sync.WaitGroup
	rows := make([][]string, parts)
	errs := make([]error, parts)
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s, err := j.Execute(ctx, p)
			if err != nil {
				errs[p] = err
				return
			}
			batches, err := drainAll(s)
			if err != nil {
				errs[p] = err
				return
			}
			for _, b := range batches {
				rows[p] = append(rows[p], rowsAsStrings(b)...)
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
	if got := left.executes.Load(); got != 1 {
		t.Fatalf("left side executed %d times; the shared build must run once", got)
	}
	var all []string
	for _, r := range rows {
		all = append(all, r...)
	}
	sort.Strings(all)
	want := []string{`1|"ann"|1|100|`, `1|"ann"|1|150|`, `3|"cat"|3|300|`}
	sort.Strings(want)
	if len(all) != len(want) {
		t.Fatalf("got %d rows %v, want %v", len(all), all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("row %d: got %q, want %q", i, all[i], want[i])
		}
	}
}

// TestPartitionedBuildClosesItsInputOnCancel compiles a partitioned hash
// join's probe in a query that is already cancelled: the build fails with
// the cancellation, and it must close the left input it opened (a GPQ
// scan's readahead goroutine would otherwise wait on it forever).
func TestPartitionedBuildClosesItsInputOnCancel(t *testing.T) {
	left := &closeCounter{ValuesExec: pushInput(2, 16, 4)}
	id := physical.NewColumnExpr(0, "id", arrow.Int64)
	j := NewHashJoinExec(left, pushInput(2, 16, 4), []JoinOn{{L: id, R: id}}, nil, logical.InnerJoin, PartitionedJoin)
	ctx := physical.NewExecContext()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Ctx = cctx
	if p, err := j.PushInto(ctx, 0); err == nil {
		p.Close()
		t.Fatal("a cancelled query built its join table, want the cancellation")
	}
	if left.closes != 1 {
		t.Fatalf("left input closed %d times after the failed build, want 1", left.closes)
	}
}
