package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/optimizer"
	"gofusion/internal/physical"
	"gofusion/internal/planner"
	"gofusion/internal/sql"
	"gofusion/internal/testutil"
)

// Window differential: every query runs at 1, 2 and 4 target partitions,
// with and without the physical top-k rewrite, and must match a naive
// reference written here (the baseline engine shares WindowExec, so it
// cannot referee). Queries whose ORDER BY has ties project tie-stable
// columns only: which of two tied rows gets row number 3 is arbitrary,
// that the pair gets {3, 4} is not.

// wrow is one row of the test table w(k1, k2, o, u, v): two nullable
// partition keys with few values, an order key with ties, a unique column
// that makes any order total, and a nullable payload.
type wrow struct {
	k1   *int64
	k2   *string
	o, u int64
	v    *int64
}

var wSchema = arrow.NewSchema(
	arrow.NewField("k1", arrow.Int64, true),
	arrow.NewField("k2", arrow.String, true),
	arrow.NewField("o", arrow.Int64, false),
	arrow.NewField("u", arrow.Int64, false),
	arrow.NewField("v", arrow.Int64, true),
)

func randomWRows(rng *rand.Rand, n int) []wrow {
	names := []string{"", "a", "b\x00", "b"}
	rows := make([]wrow, n)
	for i, u := range rng.Perm(n) {
		r := wrow{o: int64(rng.Intn(6)), u: int64(u)}
		if rng.Intn(7) > 0 {
			k := int64(rng.Intn(5) - 2)
			r.k1 = &k
		}
		if rng.Intn(7) > 0 {
			r.k2 = &names[rng.Intn(len(names))]
		}
		if rng.Intn(5) > 0 {
			v := int64(rng.Intn(40) - 20)
			r.v = &v
		}
		rows[i] = r
	}
	return rows
}

// cellsBatch builds a batch from rows of cells: nil, int64 or string.
func cellsBatch(t *testing.T, schema *arrow.Schema, rows [][]any) *arrow.RecordBatch {
	t.Helper()
	builders := make([]arrow.Builder, schema.NumFields())
	for c, f := range schema.Fields() {
		builders[c] = arrow.NewBuilder(f.Type)
	}
	for _, row := range rows {
		if len(row) != len(builders) {
			t.Fatalf("row has %d cells, schema %d fields", len(row), len(builders))
		}
		for c, cell := range row {
			switch v := cell.(type) {
			case nil:
				builders[c].AppendNull()
			case int64:
				builders[c].(*arrow.NumericBuilder[int64]).Append(v)
			case float64:
				builders[c].(*arrow.NumericBuilder[float64]).Append(v)
			case string:
				builders[c].(*arrow.StringBuilder).Append(v)
			default:
				t.Fatalf("unsupported cell %T", cell)
			}
		}
	}
	cols := make([]arrow.Array, len(builders))
	for c, b := range builders {
		cols[c] = b.Finish()
	}
	return arrow.NewRecordBatchWithRows(schema, cols, len(rows))
}

func optInt(p *int64) any {
	if p == nil {
		return nil
	}
	return *p
}

func optStr(p *string) any {
	if p == nil {
		return nil
	}
	return *p
}

// wTable splits the rows into several batches of one in-memory partition;
// the scan fans them out over the target partitions.
func wTable(t *testing.T, rows []wrow) *catalog.MemTable {
	t.Helper()
	var batches []*arrow.RecordBatch
	for start := 0; start < len(rows); start += 97 {
		end := min(start+97, len(rows))
		cells := make([][]any, 0, end-start)
		for _, r := range rows[start:end] {
			cells = append(cells, []any{optInt(r.k1), optStr(r.k2), r.o, r.u, optInt(r.v)})
		}
		batches = append(batches, cellsBatch(t, wSchema, cells))
	}
	mt, err := catalog.NewMemTable(wSchema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// refWindow is what the reference computes for one row of one window.
type refWindow struct {
	rowNumber, rank, denseRank, count int64
	lag, lead2, first, last, nth2     *int64 // of v
	runSum, wholeSum                  *int64 // sum(v): RANGE running, whole partition
	wholeCount                        int64  // count(*) over the partition
	ntile3                            int64
	percentRank, cumeDist             float64
	around                            *int64 // sum(v) ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING
}

// refEval evaluates every supported function for each row the slow way:
// group by the partition key, stable-sort each group, walk it.
func refEval(rows []wrow, partKey func(wrow) string, less func(a, b wrow) bool) []refWindow {
	out := make([]refWindow, len(rows))
	groups := map[string][]int{}
	for i, r := range rows {
		groups[partKey(r)] = append(groups[partKey(r)], i)
	}
	sumOf := func(idx []int) *int64 {
		var s int64
		seen := false
		for _, i := range idx {
			if rows[i].v != nil {
				s, seen = s+*rows[i].v, true
			}
		}
		if !seen {
			return nil
		}
		return &s
	}
	for _, g := range groups {
		sort.SliceStable(g, func(a, b int) bool { return less(rows[g[a]], rows[g[b]]) })
		peer := func(a, b int) bool { return !less(rows[g[a]], rows[g[b]]) && !less(rows[g[b]], rows[g[a]]) }
		whole := sumOf(g)
		dense := int64(0)
		for i := 0; i < len(g); {
			j := i + 1
			for j < len(g) && peer(i, j) {
				j++
			}
			dense++
			run := sumOf(g[:j])
			for p := i; p < j; p++ {
				w := &out[g[p]]
				w.rowNumber, w.rank, w.denseRank, w.count = int64(p+1), int64(i+1), dense, int64(j)
				w.runSum, w.wholeSum, w.wholeCount = run, whole, int64(len(g))
				w.ntile3 = int64(p)*3/int64(len(g)) + 1
				w.cumeDist = float64(j) / float64(len(g))
				if len(g) > 1 {
					w.percentRank = float64(i) / float64(len(g)-1)
				}
				w.around = sumOf(g[max(p-1, 0):min(p+2, len(g))])
				if p > 0 {
					w.lag = rows[g[p-1]].v
				}
				if p+2 < len(g) {
					w.lead2 = rows[g[p+2]].v
				}
				// Default frame: partition start through the last peer.
				w.first, w.last = rows[g[0]].v, rows[g[j-1]].v
				if j >= 2 {
					w.nth2 = rows[g[1]].v
				}
			}
			i = j
		}
	}
	return out
}

// windowCase is one query and its reference answer.
type windowCase struct {
	name string
	sql  string
	out  []*arrow.DataType
	// partition key and order of the window the reference evaluates
	partKey func(wrow) string
	less    func(a, b wrow) bool
	// row renders the expected output row; ok=false drops it
	row func(r wrow, w refWindow) (cells []any, ok bool)
	// a second window with other keys, for row2 in place of row
	partKey2 func(wrow) string
	less2    func(a, b wrow) bool
	row2     func(r wrow, w, w2 refWindow) (cells []any, ok bool)
	// wantTopK is the limit the rewrite must set (NoTopK: must not fire)
	wantTopK int64
}

func byK1(r wrow) string      { return fmt.Sprint(optInt(r.k1)) }
func byK1K2(r wrow) string    { return fmt.Sprint(optInt(r.k1), "|", optStr(r.k2) == nil, optStr(r.k2)) }
func noPartition(wrow) string { return "" }
func lessOU(a, b wrow) bool {
	if a.o != b.o {
		return a.o < b.o
	}
	return a.u < b.u
}
func unordered(a, b wrow) bool { return false }
func lessO(a, b wrow) bool     { return a.o < b.o }
func lessODesc(a, b wrow) bool { return a.o > b.o }
func lessU(a, b wrow) bool     { return a.u < b.u }

// lessVDescNullsFirstU is ORDER BY v DESC NULLS FIRST, u.
func lessVDescNullsFirstU(a, b wrow) bool {
	switch {
	case a.v == nil && b.v == nil:
		return a.u < b.u
	case a.v == nil || b.v == nil:
		return a.v == nil
	case *a.v != *b.v:
		return *a.v > *b.v
	}
	return a.u < b.u
}

var (
	i64 = arrow.Int64
	str = arrow.String
)

func windowCases() []windowCase {
	keep := func(cells ...any) ([]any, bool) { return cells, true }
	topK := func(k int64, stable func(r wrow) []any) func(wrow, refWindow) ([]any, bool) {
		return func(r wrow, w refWindow) ([]any, bool) { return stable(r), w.rowNumber <= k }
	}
	k1u := func(r wrow) []any { return []any{optInt(r.k1), r.u} }
	k1o := func(r wrow) []any { return []any{optInt(r.k1), r.o} }
	const rnSub = `(SELECT k1, o, u, row_number() OVER (PARTITION BY k1 ORDER BY o, u) AS rn FROM w) s`
	return []windowCase{
		{name: "row_number total order",
			sql: `SELECT u, row_number() OVER (PARTITION BY k1 ORDER BY o, u) FROM w`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, w.rowNumber) }},
		{name: "row_number tied order, tie-stable columns",
			sql: `SELECT k1, o, row_number() OVER (PARTITION BY k1 ORDER BY o) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1, less: lessO, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(optInt(r.k1), r.o, w.rowNumber) }},
		{name: "row_number nulls first descending",
			sql: `SELECT u, row_number() OVER (PARTITION BY k1 ORDER BY v DESC NULLS FIRST, u) FROM w`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessVDescNullsFirstU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, w.rowNumber) }},
		{name: "rank and dense_rank over two partition keys with ties",
			sql: `SELECT u, rank() OVER (PARTITION BY k1, k2 ORDER BY o DESC), dense_rank() OVER (PARTITION BY k1, k2 ORDER BY o DESC) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1K2, less: lessODesc, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, w.rank, w.denseRank) }},
		{name: "lag and lead",
			sql: `SELECT u, lag(v) OVER (PARTITION BY k1 ORDER BY o, u), lead(v, 2) OVER (PARTITION BY k1 ORDER BY o, u) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, optInt(w.lag), optInt(w.lead2)) }},
		{name: "first_value last_value nth_value",
			sql:     `SELECT u, first_value(v) OVER (PARTITION BY k2 ORDER BY o, u), last_value(v) OVER (PARTITION BY k2 ORDER BY o, u), nth_value(v, 2) OVER (PARTITION BY k2 ORDER BY o, u) FROM w`,
			out:     []*arrow.DataType{i64, i64, i64, i64},
			partKey: func(r wrow) string { return fmt.Sprint(optStr(r.k2) == nil, optStr(r.k2)) }, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) {
				return keep(r.u, optInt(w.first), optInt(w.last), optInt(w.nth2))
			}},
		{name: "ntile percent_rank cume_dist",
			sql: `SELECT u, ntile(3) OVER (PARTITION BY k1 ORDER BY o, u), percent_rank() OVER (PARTITION BY k1 ORDER BY o, u), cume_dist() OVER (PARTITION BY k1 ORDER BY o, u) FROM w`,
			out: []*arrow.DataType{i64, i64, arrow.Float64, arrow.Float64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, w.ntile3, w.percentRank, w.cumeDist) }},
		{name: "percent_rank and cume_dist with ties",
			sql: `SELECT u, percent_rank() OVER (PARTITION BY k1 ORDER BY o), cume_dist() OVER (PARTITION BY k1 ORDER BY o) FROM w`,
			out: []*arrow.DataType{i64, arrow.Float64, arrow.Float64}, partKey: byK1, less: lessO, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, w.percentRank, w.cumeDist) }},
		{name: "lag with a default and a sliding ROWS frame",
			sql: `SELECT u, lag(v, 1, -99) OVER (PARTITION BY k1 ORDER BY o, u), sum(v) OVER (PARTITION BY k1 ORDER BY o, u ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) {
				lag := optInt(w.lag)
				if w.rowNumber == 1 {
					lag = int64(-99)
				}
				return keep(r.u, lag, optInt(w.around))
			}},
		{name: "running aggregates over peers",
			sql: `SELECT u, sum(v) OVER (PARTITION BY k1 ORDER BY o), count(*) OVER (PARTITION BY k1 ORDER BY o) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1, less: lessO, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, optInt(w.runSum), w.count) }},
		{name: "whole-partition aggregates",
			sql: `SELECT u, sum(v) OVER (PARTITION BY k1, k2), count(*) OVER (PARTITION BY k1, k2) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1K2, less: unordered, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, optInt(w.wholeSum), w.wholeCount) }},
		{name: "no partition by",
			sql: `SELECT u, row_number() OVER (ORDER BY u), sum(v) OVER (ORDER BY u) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: noPartition, less: lessU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return keep(r.u, w.rowNumber, optInt(w.runSum)) }},
		{name: "two specs with different keys",
			sql: `SELECT u, row_number() OVER (PARTITION BY k1 ORDER BY o, u), count(*) OVER (PARTITION BY k1, k2) FROM w`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			partKey2: byK1K2, less2: unordered,
			row2: func(r wrow, w, w2 refWindow) ([]any, bool) { return keep(r.u, w.rowNumber, w2.wholeCount) }},

		{name: "top-k <= 2", sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn <= 2`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: 2, row: topK(2, k1u)},
		{name: "top-k <= 5", sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn <= 5`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: 5, row: topK(5, k1u)},
		{name: "top-k < 3", sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn < 3`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: 2, row: topK(2, k1u)},
		{name: "top-k = 1", sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn = 1`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: 1, row: topK(1, k1u)},
		{name: "top-k <= 0", sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn <= 0`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: 0, row: topK(0, k1u)},
		{name: "top-k < 0", sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn < 0`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: 0, row: topK(0, k1u)},
		{name: "top-k tied order, tie-stable columns",
			sql: `SELECT k1, o FROM (SELECT k1, o, row_number() OVER (PARTITION BY k1 ORDER BY o DESC) AS rn FROM w) s WHERE rn <= 3`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessODesc, wantTopK: 3, row: topK(3, k1o)},
		{name: "top-k two partition keys",
			sql: `SELECT k2, u FROM (SELECT k2, u, row_number() OVER (PARTITION BY k1, k2 ORDER BY o, u) AS rn FROM w) s WHERE rn <= 2`,
			out: []*arrow.DataType{str, i64}, partKey: byK1K2, less: lessOU, wantTopK: 2,
			row: topK(2, func(r wrow) []any { return []any{optStr(r.k2), r.u} })},
		{name: "top-k without partition by",
			sql: `SELECT u FROM (SELECT u, row_number() OVER (ORDER BY o, u) AS rn FROM w) s WHERE rn <= 7`,
			out: []*arrow.DataType{i64}, partKey: noPartition, less: lessOU, wantTopK: 7,
			row: topK(7, func(r wrow) []any { return []any{r.u} })},
		{name: "top-k without partition by, tied order",
			sql: `SELECT o FROM (SELECT o, row_number() OVER (ORDER BY o DESC) AS rn FROM w) s WHERE rn <= 4`,
			out: []*arrow.DataType{i64}, partKey: noPartition, less: lessODesc, wantTopK: 4,
			row: topK(4, func(r wrow) []any { return []any{r.o} })},
		// Liveness stops at computed expressions, but projection pushdown
		// has already cut rn from the subquery's projection below u + 1.
		{name: "top-k under a computed outer column",
			sql: `SELECT u + 1 FROM ` + rnSub + ` WHERE rn <= 2`,
			out: []*arrow.DataType{i64}, partKey: byK1, less: lessOU, wantTopK: 2,
			row: topK(2, func(r wrow) []any { return []any{r.u + 1} })},
		// Shapes the rewrite must leave alone.
		{name: "not rewritten: row number also projected",
			sql: `SELECT k1, u, rn FROM ` + rnSub + ` WHERE rn <= 2`,
			out: []*arrow.DataType{i64, i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) {
				return []any{optInt(r.k1), r.u, w.rowNumber}, w.rowNumber <= 2
			}},
		{name: "not rewritten: row number read by an outer expression",
			sql: `SELECT u, rn * 10 FROM ` + rnSub + ` WHERE rn <= 2`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return []any{r.u, w.rowNumber * 10}, w.rowNumber <= 2 }},
		{name: "not rewritten: rank filter",
			sql: `SELECT k1, o FROM (SELECT k1, o, rank() OVER (PARTITION BY k1 ORDER BY o) AS rk FROM w) s WHERE rk <= 2`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessO, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return []any{optInt(r.k1), r.o}, w.rank <= 2 }},
		{name: "not rewritten: second window spec",
			sql: `SELECT k1, u FROM (SELECT k1, u, row_number() OVER (PARTITION BY k1 ORDER BY o, u) AS rn, count(*) OVER (PARTITION BY k2) AS c FROM w) s WHERE rn <= 2`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK, row: topK(2, k1u)},
		{name: "not rewritten: row number = 2",
			sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn = 2`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return k1u(r), w.rowNumber == 2 }},
		{name: "not rewritten: lower bound",
			sql: `SELECT k1, u FROM ` + rnSub + ` WHERE rn >= 2`,
			out: []*arrow.DataType{i64, i64}, partKey: byK1, less: lessOU, wantTopK: NoTopK,
			row: func(r wrow, w refWindow) ([]any, bool) { return k1u(r), w.rowNumber >= 2 }},
	}
}

// windowPhysicalPlan lowers sqlText the way CreatePhysicalPlan does, the
// top-k rewrite optional.
func windowPhysicalPlan(t *testing.T, sqlText string, table catalog.TableProvider, partitions int, rewrite bool) physical.ExecutionPlan {
	t.Helper()
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve := func(string) (logical.TableSource, error) { return table, nil }
	plan, err := planner.New(resolve, testReg).PlanQuery(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if plan, err = optimizer.New(testReg).Optimize(plan); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	cfg := (&PlannerConfig{TargetPartitions: partitions, Reg: testReg, BatchRows: 64}).withDefaults()
	pp, err := cfg.create(plan)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if rewrite {
		if pp, err = limitWindowTopK(pp, nil); err != nil {
			t.Fatal(err)
		}
	}
	if pp, err = fusePipelines(pp); err != nil {
		t.Fatal(err)
	}
	return pp
}

func findWindow(p physical.ExecutionPlan) *WindowExec {
	if w, ok := p.(*WindowExec); ok {
		return w
	}
	for _, c := range p.Children() {
		if w := findWindow(c); w != nil {
			return w
		}
	}
	return nil
}

// wDataset is one input of the window and top-k differentials.
type wDataset struct {
	name string
	rows []wrow
}

func wDatasets(seed int64) []wDataset {
	rng := rand.New(rand.NewSource(seed))
	// An arrival order that admits every row into the top-k heaps (each
	// beats all before it in (o, u) order), enough of them to force
	// compactions.
	improving := make([]wrow, 3*topKSlack)
	for i := range improving {
		k := int64(i % 3)
		improving[i] = wrow{k1: &k, o: int64(len(improving) - i), u: int64(len(improving) - i)}
	}
	return []wDataset{
		{"random", randomWRows(rng, 1500)},
		{"one row", randomWRows(rng, 1)},
		{"empty", nil},
		{"improving", improving},
	}
}

func TestWindowDifferential(t *testing.T) {
	for _, ds := range wDatasets(20240925) {
		table := wTable(t, ds.rows)
		for _, c := range windowCases() {
			if ds.name == "improving" && c.wantTopK == NoTopK {
				continue // per-row frames over 12k rows only cost time
			}
			ref := refEval(ds.rows, c.partKey, c.less)
			fields := make([]arrow.Field, len(c.out))
			for i, typ := range c.out {
				fields[i] = arrow.NewField(fmt.Sprintf("c%d", i), typ, true)
			}
			var ref2 []refWindow
			if c.row2 != nil {
				ref2 = refEval(ds.rows, c.partKey2, c.less2)
			}
			var cells [][]any
			for i, r := range ds.rows {
				var row []any
				var ok bool
				if c.row2 != nil {
					row, ok = c.row2(r, ref[i], ref2[i])
				} else {
					row, ok = c.row(r, ref[i])
				}
				if ok {
					cells = append(cells, row)
				}
			}
			want := cellsBatch(t, arrow.NewSchema(fields...), cells)
			for _, parts := range []int{1, 2, 4} {
				for _, rewrite := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/p%d/rewrite=%v", ds.name, c.name, parts, rewrite)
					pp := windowPhysicalPlan(t, c.sql, table, parts, rewrite)
					w := findWindow(pp)
					if w == nil {
						t.Fatalf("%s: no WindowExec in\n%s", name, ExplainPhysical(pp))
					}
					wantTopK := c.wantTopK
					if !rewrite {
						wantTopK = NoTopK
					}
					if w.TopK != wantTopK {
						t.Errorf("%s: TopK = %d, want %d\n%s", name, w.TopK, wantTopK, ExplainPhysical(pp))
					}
					ctx := physical.NewExecContext()
					ctx.BatchRows = 64
					got, err := CollectBatch(ctx, pp)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d := testutil.DiffBatches(got, want); d != "" {
						t.Errorf("%s:\n%s\n%s", name, d, ExplainPhysical(pp))
					}
					if err := CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

func countSorts(p physical.ExecutionPlan) int {
	n := 0
	if _, ok := p.(*ExternalSortExec); ok {
		n = 1
	}
	for _, c := range p.Children() {
		n += countSorts(c)
	}
	return n
}

// TestWindowKeepsInputOrder pins that a window hands its input order on,
// limited or not: lowering drops an outer ORDER BY the window's input
// already satisfies, before the top-k rewrite runs, so the limited window
// must emit its survivors in input order too. Results are compared in
// order.
func TestWindowKeepsInputOrder(t *testing.T) {
	rows := randomWRows(rand.New(rand.NewSource(7)), 1500)
	table := wTable(t, rows)
	ref := refEval(rows, byK1, lessOU)
	var want []int64
	for i, r := range rows {
		if ref[i].rowNumber <= 2 {
			want = append(want, r.u)
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	const query = `SELECT u, k1 FROM (SELECT u, k1, row_number() OVER (PARTITION BY k1 ORDER BY o, u) AS rn
		FROM (SELECT * FROM w ORDER BY u) x) s WHERE rn <= 2 ORDER BY u`
	for _, parts := range []int{1, 2, 4} {
		for _, rewrite := range []bool{false, true} {
			name := fmt.Sprintf("p%d/rewrite=%v", parts, rewrite)
			pp := windowPhysicalPlan(t, query, table, parts, rewrite)
			if w := findWindow(pp); (w.TopK == 2) != rewrite {
				t.Errorf("%s: TopK = %d\n%s", name, w.TopK, ExplainPhysical(pp))
			}
			// One partition: the window passes the inner sort's order on and
			// the outer sort is gone, which is the case under test.
			if parts == 1 && countSorts(pp) != 1 {
				t.Errorf("%s: want the outer sort eliminated\n%s", name, ExplainPhysical(pp))
			}
			ctx := physical.NewExecContext()
			ctx.BatchRows = 64
			got, err := CollectBatch(ctx, pp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gotU := got.Column(0).(*arrow.NumericArray[int64]).Values(); !slices.Equal(gotU, want) {
				t.Errorf("%s: u column out of order or wrong:\n got %v\nwant %v\n%s", name, gotU, want, ExplainPhysical(pp))
			}
		}
	}
}

func hasTopK(p physical.ExecutionPlan) bool {
	if _, ok := p.(*TopKExec); ok {
		return true
	}
	return slices.ContainsFunc(p.Children(), hasTopK)
}

// TestTopKDifferential runs ORDER BY … LIMIT through TopKExec (and the merge
// above it at more than one partition) over the window differential's
// datasets and compares the rows in order with the reference's. On the
// improving dataset the heap admits every row and compacts repeatedly.
func TestTopKDifferential(t *testing.T) {
	cases := []struct {
		sql  string
		less func(a, b wrow) bool
		row  func(r wrow) []any
		out  []*arrow.DataType
	}{
		{`SELECT k1, o, u FROM w ORDER BY o, u LIMIT %d`, lessOU,
			func(r wrow) []any { return []any{optInt(r.k1), r.o, r.u} }, []*arrow.DataType{i64, i64, i64}},
		// Ties on o: only o itself is selected.
		{`SELECT o FROM w ORDER BY o DESC LIMIT %d`, lessODesc,
			func(r wrow) []any { return []any{r.o} }, []*arrow.DataType{i64}},
		{`SELECT u, v FROM w ORDER BY v DESC NULLS FIRST, u LIMIT %d`, lessVDescNullsFirstU,
			func(r wrow) []any { return []any{r.u, optInt(r.v)} }, []*arrow.DataType{i64, i64}},
	}
	for _, ds := range wDatasets(20240926) {
		table := wTable(t, ds.rows)
		for _, c := range cases {
			sorted := slices.Clone(ds.rows)
			sort.SliceStable(sorted, func(a, b int) bool { return c.less(sorted[a], sorted[b]) })
			fields := make([]arrow.Field, len(c.out))
			for i, typ := range c.out {
				fields[i] = arrow.NewField(fmt.Sprintf("c%d", i), typ, true)
			}
			for _, k := range []int{1, 7, 1000} {
				var cells [][]any
				for _, r := range sorted[:min(k, len(sorted))] {
					cells = append(cells, c.row(r))
				}
				want := cellsBatch(t, arrow.NewSchema(fields...), cells)
				query := fmt.Sprintf(c.sql, k)
				for _, parts := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/p%d/%s", ds.name, parts, query)
					pp := windowPhysicalPlan(t, query, table, parts, true)
					if !hasTopK(pp) {
						t.Fatalf("%s: no TopKExec in\n%s", name, ExplainPhysical(pp))
					}
					ctx := physical.NewExecContext()
					ctx.BatchRows = 64
					got, err := CollectBatch(ctx, pp)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d := testutil.DiffOrdered(got, want); d != "" {
						t.Errorf("%s:\n%s\n%s", name, d, ExplainPhysical(pp))
					}
					if err := CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}
