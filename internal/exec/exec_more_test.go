package exec

import (
	"context"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

func TestWindowRowsFrames(t *testing.T) {
	// Values 1..6 in one partition; moving sum over ROWS BETWEEN 1
	// PRECEDING AND 1 FOLLOWING.
	schema := arrow.NewSchema(arrow.NewField("v", arrow.Int64, false))
	mt := memTable(t, schema, []arrow.Array{arrow.NewInt64([]int64{1, 2, 3, 4, 5, 6})})
	plan, err := logical.NewBuilder(testReg).
		Scan("t", mt).
		Window(&logical.Alias{E: &logical.WindowFunc{
			Name:    "sum",
			Args:    []logical.Expr{logical.Col("v")},
			OrderBy: []logical.SortExpr{logical.SortAsc(logical.Col("v"))},
			Frame: logical.WindowFrame{Rows: true,
				Start: logical.FrameBound{Kind: logical.OffsetPreceding, Offset: 1},
				End:   logical.FrameBound{Kind: logical.OffsetFollowing, Offset: 1}},
		}, Name: "ms"}).
		Project(logical.Col("v"), logical.Col("ms")).
		Sort(logical.SortAsc(logical.Col("v"))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	want := []string{"1|3|", "2|6|", "3|9|", "4|12|", "5|15|", "6|11|"}
	sameRows(t, got, want, true)
}

func TestWindowUnboundedFrame(t *testing.T) {
	schema := arrow.NewSchema(
		arrow.NewField("g", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, false),
	)
	mt := memTable(t, schema, []arrow.Array{
		arrow.NewInt64([]int64{1, 1, 2}),
		arrow.NewInt64([]int64{10, 20, 5}),
	})
	plan, err := logical.NewBuilder(testReg).
		Scan("t", mt).
		Window(&logical.Alias{E: &logical.WindowFunc{
			Name:        "sum",
			Args:        []logical.Expr{logical.Col("v")},
			PartitionBy: []logical.Expr{logical.Col("g")},
			Frame: logical.WindowFrame{
				Start: logical.FrameBound{Kind: logical.UnboundedPreceding},
				End:   logical.FrameBound{Kind: logical.UnboundedFollowing}},
		}, Name: "total"}).
		Project(logical.Col("v"), logical.Col("total")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{"10|30|", "20|30|", "5|5|"}, false)
}

func TestWindowPeersRangeFrame(t *testing.T) {
	// RANGE UNBOUNDED..CURRENT with ties: peers share the running value.
	schema := arrow.NewSchema(arrow.NewField("v", arrow.Int64, false))
	mt := memTable(t, schema, []arrow.Array{arrow.NewInt64([]int64{1, 2, 2, 3})})
	plan, err := logical.NewBuilder(testReg).
		Scan("t", mt).
		Window(&logical.Alias{E: &logical.WindowFunc{
			Name:    "sum",
			Args:    []logical.Expr{logical.Col("v")},
			OrderBy: []logical.SortExpr{logical.SortAsc(logical.Col("v"))},
			Frame:   logical.DefaultFrame(), // RANGE UNBOUNDED..CURRENT
		}, Name: "run"}).
		Project(logical.Col("v"), logical.Col("run")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	// Ties at v=2 both see 1+2+2=5.
	sameRows(t, got, []string{"1|1|", "2|5|", "2|5|", "3|8|"}, false)
}

func TestPartialAggEarlyFlush(t *testing.T) {
	// A pool smaller than any group table makes every reservation fail, so
	// the partial phase emits and resets after each batch (and the final
	// phase spills); results must still be exact.
	table := bigTable(t, 3000)
	plan, err := logical.NewBuilder(testReg).
		Scan("big", table).
		Aggregate([]logical.Expr{logical.Col("k")},
			[]logical.Expr{&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("v")}}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &PlannerConfig{TargetPartitions: 3, Reg: testReg}
	pp, err := CreatePhysicalPlan(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := physical.NewExecContext()
	ctx.Pool = memory.NewGreedyPool(512)
	ctx.Disk = memory.NewDiskManager(t.TempDir())
	defer ctx.Disk.Close()
	got, err := CollectBatch(ctx, pp)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := PartialAggMetric(pp, "early_flushes"); n == 0 {
		t.Fatalf("the partial aggregate never flushed early:\n%s", ExplainPhysical(pp))
	}
	want := runPlan(t, plan, 1)
	if !sameRowsOK(got, rowsAsStrings(want)) {
		t.Fatal("early-flush results differ")
	}
}

func TestQueryCancellation(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	table := bigTable(t, 100000)
	plan, err := logical.NewBuilder(testReg).
		Scan("big", table).
		Aggregate([]logical.Expr{logical.Col("v")}, // high cardinality: slow enough
			[]logical.Expr{&logical.AggFunc{Name: "count"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := CreatePhysicalPlan(plan, &PlannerConfig{TargetPartitions: 1, Reg: testReg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := physical.NewExecContext()
	cctx, cancel := context.WithCancel(context.Background())
	ctx.Ctx = cctx
	cancel() // cancel before execution
	if _, err := CollectPlan(ctx, pp); err == nil {
		t.Fatal("cancelled query must fail")
	}
}

func TestUnionPreservesPartitions(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	a := bigTable(t, 100)
	planA, _ := logical.NewBuilder(testReg).Scan("a", a).Build()
	planB, _ := logical.NewBuilder(testReg).Scan("b", a).Build()
	u := &logical.Union{Inputs: []logical.Plan{planA, planB}, All: true}
	pp, err := CreatePhysicalPlan(u, &PlannerConfig{TargetPartitions: 2, Reg: testReg})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(physical.NewExecContext(), pp)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 200 {
		t.Fatalf("union rows = %d", got.NumRows())
	}
}

func TestMemTableDeclaredOrderValidated(t *testing.T) {
	// Declaring order and relying on the ordered-agg fast path: the engine
	// trusts the catalog, so this test documents correct usage. A wrong
	// declaration may produce duplicated groups but never fails
	// (TestOrderedAggregateUnsortedInput).
	schema := arrow.NewSchema(arrow.NewField("g", arrow.Int64, false))
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{
		arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64([]int64{3, 3, 7, 7, 9})}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	mt.WithSortOrder([]catalog.OrderedCol{{Name: "g"}})
	plan, _ := logical.NewBuilder(testReg).
		Scan("t", mt).
		Aggregate([]logical.Expr{logical.Col("g")}, []logical.Expr{&logical.AggFunc{Name: "count"}}).
		Build()
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{"3|2|", "7|2|", "9|1|"}, false)
}
