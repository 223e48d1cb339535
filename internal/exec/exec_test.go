package exec

import (
	"fmt"
	"sort"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

var testReg = functions.NewRegistry()

// memTable builds a single-partition MemTable from columns.
func memTable(t *testing.T, schema *arrow.Schema, cols []arrow.Array) *catalog.MemTable {
	t.Helper()
	batch := arrow.NewRecordBatch(schema, cols)
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{batch}})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// salesTable: id, region, amount, qty (with nulls in amount).
func salesTable(t *testing.T) *catalog.MemTable {
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("region", arrow.String, true),
		arrow.NewField("amount", arrow.Float64, true),
		arrow.NewField("qty", arrow.Int64, false),
	)
	ids := arrow.NewInt64([]int64{1, 2, 3, 4, 5, 6})
	regions := arrow.NewStringFromSlice([]string{"east", "west", "east", "north", "west", "east"})
	ab := arrow.NewNumericBuilder[float64](arrow.Float64)
	for _, v := range []float64{10, 20, 30, 40, 50} {
		ab.Append(v)
	}
	ab.AppendNull()
	qty := arrow.NewInt64([]int64{1, 2, 3, 4, 5, 6})
	return memTable(t, schema, []arrow.Array{ids, regions, ab.Finish(), qty})
}

// runPlan plans and executes a logical plan with the given parallelism.
func runPlan(t *testing.T, plan logical.Plan, partitions int) *arrow.RecordBatch {
	t.Helper()
	cfg := &PlannerConfig{TargetPartitions: partitions, Reg: testReg, BatchRows: 3}
	pp, err := CreatePhysicalPlan(plan, cfg)
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	ctx := physical.NewExecContext()
	ctx.BatchRows = 3
	out, err := CollectBatch(ctx, pp)
	if err != nil {
		t.Fatalf("executing: %v", err)
	}
	return out
}

// rowsAsStrings renders each row as a string for order-insensitive
// comparison.
func rowsAsStrings(b *arrow.RecordBatch) []string {
	out := make([]string, b.NumRows())
	for i := 0; i < b.NumRows(); i++ {
		s := ""
		for c := 0; c < b.NumCols(); c++ {
			s += b.Column(c).GetScalar(i).String() + "|"
		}
		out[i] = s
	}
	return out
}

func sameRows(t *testing.T, got *arrow.RecordBatch, want []string, ordered bool) {
	t.Helper()
	gs := rowsAsStrings(got)
	if !ordered {
		sort.Strings(gs)
		sort.Strings(want)
	}
	if len(gs) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%v\nvs\n%v", len(gs), len(want), gs, want)
	}
	for i := range gs {
		if gs[i] != want[i] {
			t.Fatalf("row %d: got %q want %q\nall: %v", i, gs[i], want[i], gs)
		}
	}
}

func TestScanFilterProject(t *testing.T) {
	for _, parts := range []int{1, 4} {
		plan, err := logical.NewBuilder(testReg).
			Scan("sales", salesTable(t)).
			Filter(&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("qty"), R: logical.Lit(2)}).
			Project(logical.Col("id"), logical.Col("region")).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, plan, parts)
		sameRows(t, got, []string{`3|"east"|`, `4|"north"|`, `5|"west"|`, `6|"east"|`}, false)
	}
}

func TestProjectionExpressions(t *testing.T) {
	plan, err := logical.NewBuilder(testReg).
		Scan("sales", salesTable(t)).
		Filter(&logical.BinaryExpr{Op: logical.OpEq, L: logical.Col("id"), R: logical.Lit(2)}).
		Project(
			&logical.Alias{E: &logical.BinaryExpr{Op: logical.OpMul, L: logical.Col("qty"), R: logical.Lit(10)}, Name: "q10"},
			&logical.Alias{E: &logical.ScalarFunc{Name: "upper", Args: []logical.Expr{logical.Col("region")}}, Name: "R"},
		).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{`20|"WEST"|`}, true)
}

func TestAggregateGrouped(t *testing.T) {
	for _, parts := range []int{1, 4} {
		plan, err := logical.NewBuilder(testReg).
			Scan("sales", salesTable(t)).
			Aggregate(
				[]logical.Expr{logical.Col("region")},
				[]logical.Expr{
					&logical.AggFunc{Name: "count", Args: nil},
					&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("qty")}},
					&logical.AggFunc{Name: "min", Args: []logical.Expr{logical.Col("amount")}},
				},
			).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, plan, parts)
		sameRows(t, got, []string{
			`"east"|3|10|10|`,
			`"west"|2|7|20|`,
			`"north"|1|4|40|`,
		}, false)
	}
}

func TestAggregateUngrouped(t *testing.T) {
	for _, parts := range []int{1, 3} {
		plan, err := logical.NewBuilder(testReg).
			Scan("sales", salesTable(t)).
			Aggregate(nil, []logical.Expr{
				&logical.AggFunc{Name: "count", Args: []logical.Expr{logical.Col("amount")}},
				&logical.AggFunc{Name: "avg", Args: []logical.Expr{logical.Col("qty")}},
				&logical.AggFunc{Name: "max", Args: []logical.Expr{logical.Col("region")}},
			}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, plan, parts)
		sameRows(t, got, []string{`5|3.5|"west"|`}, true)
	}
}

func TestAggregateCountDistinctAndFilter(t *testing.T) {
	for _, parts := range []int{1, 2} {
		plan, err := logical.NewBuilder(testReg).
			Scan("sales", salesTable(t)).
			Aggregate(nil, []logical.Expr{
				&logical.AggFunc{Name: "count", Args: []logical.Expr{logical.Col("region")}, Distinct: true},
				&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("qty")},
					Filter: &logical.BinaryExpr{Op: logical.OpEq, L: logical.Col("region"), R: logical.Lit("east")}},
			}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		got := runPlan(t, plan, parts)
		sameRows(t, got, []string{`3|10|`}, true)
	}
}

func TestSortAndTopK(t *testing.T) {
	base := func() *logical.Builder {
		return logical.NewBuilder(testReg).Scan("sales", salesTable(t))
	}
	// Full sort descending by amount, nulls first (SQL DESC default).
	plan, err := base().Sort(logical.SortDesc(logical.Col("amount"))).Project(logical.Col("id")).Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{"6|", "5|", "4|", "3|", "2|", "1|"}, true)

	// TopK: sort + fetch
	sorted := &logical.Sort{Input: plan.(*logical.Projection).Input, Keys: []logical.SortExpr{logical.SortAsc(logical.Col("amount"))}, Fetch: 2}
	proj, err := logical.NewProjection(sorted, []logical.Expr{logical.Col("id")}, testReg)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 4} {
		got = runPlan(t, proj, parts)
		sameRows(t, got, []string{"1|", "2|"}, true)
	}
}

func TestLimitOffset(t *testing.T) {
	plan, err := logical.NewBuilder(testReg).
		Scan("sales", salesTable(t)).
		Sort(logical.SortAsc(logical.Col("id"))).
		Limit(2, 3).
		Project(logical.Col("id")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{"3|", "4|", "5|"}, true)
}

func usersAndOrders(t *testing.T) (*catalog.MemTable, *catalog.MemTable) {
	users := memTable(t,
		arrow.NewSchema(arrow.NewField("uid", arrow.Int64, false), arrow.NewField("name", arrow.String, false)),
		[]arrow.Array{arrow.NewInt64([]int64{1, 2, 3}), arrow.NewStringFromSlice([]string{"ann", "bob", "cat"})})
	ob := arrow.NewNumericBuilder[int64](arrow.Int64)
	ob.Append(1)
	ob.Append(1)
	ob.Append(3)
	ob.AppendNull()
	orders := memTable(t,
		arrow.NewSchema(arrow.NewField("ouid", arrow.Int64, true), arrow.NewField("total", arrow.Int64, false)),
		[]arrow.Array{ob.Finish(), arrow.NewInt64([]int64{100, 150, 300, 400})})
	return users, orders
}

func joinPlan(t *testing.T, jt logical.JoinType) logical.Plan {
	t.Helper()
	users, orders := usersAndOrders(t)
	right, err := logical.NewBuilder(testReg).Scan("orders", orders).Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.NewBuilder(testReg).
		Scan("users", users).
		Join(right, jt, []logical.EquiPair{{L: logical.Col("uid"), R: logical.Col("ouid")}}, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestHashJoinTypes(t *testing.T) {
	cases := []struct {
		jt   logical.JoinType
		want []string
	}{
		{logical.InnerJoin, []string{`1|"ann"|1|100|`, `1|"ann"|1|150|`, `3|"cat"|3|300|`}},
		{logical.LeftJoin, []string{`1|"ann"|1|100|`, `1|"ann"|1|150|`, `3|"cat"|3|300|`, `2|"bob"|NULL|NULL|`}},
		{logical.RightJoin, []string{`1|"ann"|1|100|`, `1|"ann"|1|150|`, `3|"cat"|3|300|`, `NULL|NULL|NULL|400|`}},
		{logical.FullJoin, []string{`1|"ann"|1|100|`, `1|"ann"|1|150|`, `3|"cat"|3|300|`, `2|"bob"|NULL|NULL|`, `NULL|NULL|NULL|400|`}},
		{logical.LeftSemiJoin, []string{`1|"ann"|`, `3|"cat"|`}},
		{logical.LeftAntiJoin, []string{`2|"bob"|`}},
		{logical.RightSemiJoin, []string{`1|100|`, `1|150|`, `3|300|`}},
		{logical.RightAntiJoin, []string{`NULL|400|`}},
	}
	for _, c := range cases {
		for _, parts := range []int{1, 3} {
			got := runPlan(t, joinPlan(t, c.jt), parts)
			if !sameRowsOK(got, c.want) {
				t.Fatalf("join %s parts=%d: got %v want %v", c.jt, parts, rowsAsStrings(got), c.want)
			}
		}
	}
}

func sameRowsOK(got *arrow.RecordBatch, want []string) bool {
	gs := rowsAsStrings(got)
	ws := append([]string(nil), want...)
	sort.Strings(gs)
	sort.Strings(ws)
	if len(gs) != len(ws) {
		return false
	}
	for i := range gs {
		if gs[i] != ws[i] {
			return false
		}
	}
	return true
}

func TestJoinWithResidualFilter(t *testing.T) {
	users, orders := usersAndOrders(t)
	right, _ := logical.NewBuilder(testReg).Scan("orders", orders).Build()
	plan, err := logical.NewBuilder(testReg).
		Scan("users", users).
		Join(right, logical.InnerJoin,
			[]logical.EquiPair{{L: logical.Col("uid"), R: logical.Col("ouid")}},
			&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("total"), R: logical.Lit(120)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{`1|"ann"|1|150|`, `3|"cat"|3|300|`}, false)
}

func TestNestedLoopInequalityJoin(t *testing.T) {
	users, orders := usersAndOrders(t)
	right, _ := logical.NewBuilder(testReg).Scan("orders", orders).Build()
	plan, err := logical.NewBuilder(testReg).
		Scan("users", users).
		Join(right, logical.InnerJoin, nil,
			&logical.BinaryExpr{Op: logical.OpLt,
				L: &logical.BinaryExpr{Op: logical.OpMul, L: logical.Col("uid"), R: logical.Lit(100)},
				R: logical.Col("total")}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	// uid*100 < total: (1,150),(1,300),(1,400),(2,300),(2,400),(3,400)
	if got.NumRows() != 6 {
		t.Fatalf("got %d rows: %v", got.NumRows(), rowsAsStrings(got))
	}
}

func TestCrossJoin(t *testing.T) {
	users, orders := usersAndOrders(t)
	right, _ := logical.NewBuilder(testReg).Scan("orders", orders).Build()
	plan, err := logical.NewBuilder(testReg).
		Scan("users", users).
		CrossJoin(right).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	if got.NumRows() != 12 {
		t.Fatalf("cross join rows = %d", got.NumRows())
	}
}

func TestUnionAndDistinct(t *testing.T) {
	users, _ := usersAndOrders(t)
	a, _ := logical.NewBuilder(testReg).Scan("users", users).Project(logical.Col("uid")).Build()
	b, _ := logical.NewBuilder(testReg).Scan("users", users).Project(logical.Col("uid")).Build()
	plan, err := logical.FromPlan(a, testReg).Union(b, true).Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	if got.NumRows() != 6 {
		t.Fatalf("union all rows = %d", got.NumRows())
	}
	planD, err := logical.FromPlan(a, testReg).Union(b, true).Distinct().Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2} {
		got = runPlan(t, planD, parts)
		sameRows(t, got, []string{"1|", "2|", "3|"}, false)
	}
}

func TestWindowFunctions(t *testing.T) {
	plan, err := logical.NewBuilder(testReg).
		Scan("sales", salesTable(t)).
		Window(
			&logical.Alias{E: &logical.WindowFunc{
				Name:        "row_number",
				PartitionBy: []logical.Expr{logical.Col("region")},
				OrderBy:     []logical.SortExpr{logical.SortAsc(logical.Col("qty"))},
				Frame:       logical.DefaultFrame(),
			}, Name: "rn"},
			&logical.Alias{E: &logical.WindowFunc{
				Name:    "sum",
				Args:    []logical.Expr{logical.Col("qty")},
				OrderBy: []logical.SortExpr{logical.SortAsc(logical.Col("id"))},
				Frame:   logical.DefaultFrame(),
			}, Name: "running"},
		).
		Project(logical.Col("id"), logical.Col("rn"), logical.Col("running")).
		Sort(logical.SortAsc(logical.Col("id"))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	want := []string{
		"1|1|1|",  // east, first by qty; running sum 1
		"2|1|3|",  // west first
		"3|2|6|",  // east second
		"4|1|10|", // north first
		"5|2|15|", // west second
		"6|3|21|", // east third
	}
	sameRows(t, got, want, true)
}

func TestWindowLagLeadRank(t *testing.T) {
	plan, err := logical.NewBuilder(testReg).
		Scan("sales", salesTable(t)).
		Window(
			&logical.Alias{E: &logical.WindowFunc{
				Name:    "lag",
				Args:    []logical.Expr{logical.Col("id")},
				OrderBy: []logical.SortExpr{logical.SortAsc(logical.Col("id"))},
				Frame:   logical.DefaultFrame(),
			}, Name: "prev"},
			&logical.Alias{E: &logical.WindowFunc{
				Name:    "rank",
				OrderBy: []logical.SortExpr{logical.SortAsc(logical.Col("region"))},
				Frame:   logical.DefaultFrame(),
			}, Name: "rk"},
		).
		Project(logical.Col("id"), logical.Col("prev"), logical.Col("rk")).
		Sort(logical.SortAsc(logical.Col("id"))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	// region order: east(1,3,6), north(4), west(2,5)
	want := []string{
		"1|NULL|1|",
		"2|1|5|",
		"3|2|1|",
		"4|3|4|",
		"5|4|5|",
		"6|5|1|",
	}
	sameRows(t, got, want, true)
}

func bigTable(t *testing.T, n int) *catalog.MemTable {
	return bigTableBatches(t, n, n)
}

// bigTableBatches is bigTable's rows, k = i % 97 and v = i, cut into
// batches of per rows.
func bigTableBatches(t *testing.T, n, per int) *catalog.MemTable {
	t.Helper()
	schema := arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, false),
	)
	var batches []*arrow.RecordBatch
	for start := 0; start < n; start += per {
		kb := arrow.NewNumericBuilder[int64](arrow.Int64)
		vb := arrow.NewNumericBuilder[int64](arrow.Int64)
		for i := start; i < min(start+per, n); i++ {
			kb.Append(int64(i % 97))
			vb.Append(int64(i))
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()}))
	}
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// TestSortSpillEqualsInMemory: a sort that spills runs and merges them
// returns exactly the in-memory sort's rows, every column compared in
// order. Sorting by k alone leaves ~52 rows per key whose v differ: the
// merge must hand ties on in run order, as the in-memory sort keeps them in
// arrival order.
func TestSortSpillEqualsInMemory(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	table := bigTableBatches(t, 5000, 500)
	for _, keys := range [][]logical.SortExpr{
		{logical.SortAsc(logical.Col("k")), logical.SortDesc(logical.Col("v"))},
		{logical.SortAsc(logical.Col("k"))},
		{logical.SortDesc(logical.Col("k"))},
	} {
		plan, err := logical.NewBuilder(testReg).Scan("big", table).Sort(keys...).Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := &PlannerConfig{TargetPartitions: 1, Reg: testReg}
		pp, err := CreatePhysicalPlan(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CollectBatch(physical.NewExecContext(), pp)
		if err != nil {
			t.Fatal(err)
		}

		dm := memory.NewDiskManager(t.TempDir())
		defer dm.Close()
		ctx := physical.NewExecContext()
		ctx.Pool = memory.NewGreedyPool(16 << 10) // a run every two batches
		ctx.Disk = dm
		ctx.BatchRows = 1000
		got, err := CollectBatch(ctx, pp)
		if err != nil {
			t.Fatal(err)
		}
		if spills, _ := PlanSpillStats(pp); spills < 3 {
			t.Fatalf("%v: %d runs spilled, want at least 3", keys, spills)
		}
		if d := testutil.DiffOrdered(got, want); d != "" {
			t.Fatalf("%v: spilled sort differs from the in-memory one: %s", keys, d)
		}

		// Top-K is the sort's prefix, ties included: on equal keys the heap
		// keeps the earlier row, as the sort does.
		const k = 700
		topk, err := CreatePhysicalPlan(&logical.Sort{Input: plan.(*logical.Sort).Input, Keys: keys, Fetch: k}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := topk.(*TopKExec); !ok {
			t.Fatalf("Sort with Fetch planned as\n%s", ExplainPhysical(topk))
		}
		got, err = CollectBatch(physical.NewExecContext(), topk)
		if err != nil {
			t.Fatal(err)
		}
		if d := testutil.DiffOrdered(got, want.Slice(0, k)); d != "" {
			t.Fatalf("%v: top-%d differs from the sort's first %d rows: %s", keys, k, k, d)
		}
	}
}

func TestAggregateSpillEqualsInMemory(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	table := bigTable(t, 5000)
	plan, err := logical.NewBuilder(testReg).
		Scan("big", table).
		Aggregate([]logical.Expr{logical.Col("k")},
			[]logical.Expr{&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("v")}},
				&logical.AggFunc{Name: "count"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &PlannerConfig{TargetPartitions: 1, Reg: testReg}
	pp, err := CreatePhysicalPlan(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectBatch(physical.NewExecContext(), pp)
	if err != nil {
		t.Fatal(err)
	}

	dm := memory.NewDiskManager(t.TempDir())
	defer dm.Close()
	ctx := physical.NewExecContext()
	ctx.Pool = memory.NewGreedyPool(2 * 1024)
	ctx.Disk = dm
	got, err := CollectBatch(ctx, pp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRowsOK(got, rowsAsStrings(want)) {
		t.Fatal("aggregate spill result differs")
	}
}

func TestPartitionedEqualsSinglePartition(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	// Property-style: every plan shape must produce identical results at
	// parallelism 1 and 4.
	table := bigTable(t, 2000)
	shapes := []func() (logical.Plan, error){
		func() (logical.Plan, error) {
			return logical.NewBuilder(testReg).Scan("big", table).
				Filter(&logical.BinaryExpr{Op: logical.OpLt, L: logical.Col("v"), R: logical.Lit(500)}).
				Aggregate([]logical.Expr{logical.Col("k")},
					[]logical.Expr{&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("v")}}}).
				Build()
		},
		func() (logical.Plan, error) {
			return logical.NewBuilder(testReg).Scan("big", table).
				Sort(logical.SortDesc(logical.Col("v"))).
				Limit(0, 10).
				Build()
		},
	}
	for si, shape := range shapes {
		p1, err := shape()
		if err != nil {
			t.Fatal(err)
		}
		r1 := runPlan(t, p1, 1)
		r4 := runPlan(t, p1, 4)
		if !sameRowsOK(r4, rowsAsStrings(r1)) {
			t.Fatalf("shape %d: partitioned result differs", si)
		}
	}
}

func TestMergeJoinDirect(t *testing.T) {
	// Build two sorted MemTables with declared sort order and verify the
	// planner selects SortMergeJoinExec and produces correct results.
	mkSorted := func(keyName, valName string, keys []int64, vals []string) *catalog.MemTable {
		schema := arrow.NewSchema(
			arrow.NewField(keyName, arrow.Int64, false),
			arrow.NewField(valName, arrow.String, false),
		)
		mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{
			arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(keys), arrow.NewStringFromSlice(vals)}),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return mt.WithSortOrder([]catalog.OrderedCol{{Name: keyName}})
	}
	left := mkSorted("lk", "lv", []int64{1, 2, 2, 4}, []string{"a", "b", "c", "d"})
	right := mkSorted("rk", "rv", []int64{2, 3, 4}, []string{"x", "y", "z"})
	rightPlan, _ := logical.NewBuilder(testReg).Scan("r", right).Build()
	plan, err := logical.NewBuilder(testReg).
		Scan("l", left).
		Join(rightPlan, logical.InnerJoin, []logical.EquiPair{{L: logical.Col("lk"), R: logical.Col("rk")}}, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &PlannerConfig{TargetPartitions: 1, Reg: testReg}
	pp, err := CreatePhysicalPlan(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var walk func(p physical.ExecutionPlan)
	walk = func(p physical.ExecutionPlan) {
		if _, ok := p.(*SortMergeJoinExec); ok {
			found = true
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(pp)
	if !found {
		t.Fatalf("expected merge join in plan:\n%s", ExplainPhysical(pp))
	}
	got, err := CollectBatch(physical.NewExecContext(), pp)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, []string{`2|"b"|2|"x"|`, `2|"c"|2|"x"|`, `4|"d"|4|"z"|`}, false)
}

func TestSymmetricHashJoinDirect(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	users, orders := usersAndOrders(t)
	uScan, _ := users.Scan(catalog.ScanRequest{Partitions: 1, Limit: -1})
	oScan, _ := orders.Scan(catalog.ScanRequest{Partitions: 1, Limit: -1})
	l := NewTableScanExec("users", uScan)
	r := NewTableScanExec("orders", oScan)
	j := NewSymmetricHashJoinExec(l, r, []JoinOn{{
		L: physical.NewColumnExpr(0, "uid", arrow.Int64),
		R: physical.NewColumnExpr(0, "ouid", arrow.Int64),
	}})
	got, err := CollectBatch(physical.NewExecContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, []string{`1|"ann"|1|100|`, `1|"ann"|1|150|`, `3|"cat"|3|300|`}, false)
}

func TestStreamingAggregateOrderedInput(t *testing.T) {
	// Sorted input with declared order must take the streaming path and
	// produce correct grouped results.
	schema := arrow.NewSchema(
		arrow.NewField("g", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, false),
	)
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{
		arrow.NewRecordBatch(schema, []arrow.Array{
			arrow.NewInt64([]int64{1, 1, 2, 2, 2, 3}),
			arrow.NewInt64([]int64{10, 20, 30, 40, 50, 60}),
		}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	mt.WithSortOrder([]catalog.OrderedCol{{Name: "g"}})
	plan, err := logical.NewBuilder(testReg).
		Scan("t", mt).
		Aggregate([]logical.Expr{logical.Col("g")},
			[]logical.Expr{&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("v")}}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &PlannerConfig{TargetPartitions: 1, Reg: testReg, BatchRows: 2}
	pp, err := CreatePhysicalPlan(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := pp.(*HashAggregateExec)
	if !ok || !agg.InputOrdered {
		t.Fatalf("expected ordered aggregation:\n%s", ExplainPhysical(pp))
	}
	ctx := physical.NewExecContext()
	ctx.BatchRows = 2
	got, err := CollectBatch(ctx, pp)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, []string{"1|30|", "2|120|", "3|60|"}, false)

	// DISTINCT is planned by the same helper, so it streams over sorted
	// input too (an aggregation with no aggregates).
	plan, err = logical.NewBuilder(testReg).Scan("t", mt).Project(logical.Col("g")).Distinct().Build()
	if err != nil {
		t.Fatal(err)
	}
	if pp, err = CreatePhysicalPlan(plan, cfg); err != nil {
		t.Fatal(err)
	}
	// The de-duplication fuses with the projection under it.
	seg, ok := pp.(*PipelineExec)
	if !ok {
		t.Fatalf("expected a fused segment:\n%s", ExplainPhysical(pp))
	}
	if agg, ok := seg.top().(*HashAggregateExec); !ok || !agg.InputOrdered || len(agg.Aggs) != 0 {
		t.Fatalf("expected ordered de-duplication:\n%s", ExplainPhysical(pp))
	}
	if got, err = CollectBatch(ctx, pp); err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, []string{"1|", "2|", "3|"}, false)
}

func TestValuesAndEmptyRelation(t *testing.T) {
	plan, err := logical.NewBuilder(testReg).
		ValuesRows([][]logical.Expr{
			{logical.Lit(1), logical.Lit("a")},
			{logical.Lit(2), logical.Lit("b")},
		}).Build()
	if err != nil {
		t.Fatal(err)
	}
	got := runPlan(t, plan, 1)
	sameRows(t, got, []string{`1|"a"|`, `2|"b"|`}, true)
}

func TestExplainPhysical(t *testing.T) {
	plan, _ := logical.NewBuilder(testReg).
		Scan("sales", salesTable(t)).
		Filter(&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("qty"), R: logical.Lit(2)}).
		Build()
	cfg := &PlannerConfig{TargetPartitions: 2, Reg: testReg}
	pp, err := CreatePhysicalPlan(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ExplainPhysical(pp)
	if s == "" {
		t.Fatal("empty explain")
	}
	fmt.Println(s)
}
