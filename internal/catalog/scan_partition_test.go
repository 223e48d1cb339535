package catalog

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
)

// writePartitionedFile writes one GPQ file of n (id, name, score) rows
// with rowGroupRows-row row groups and optional footer KV metadata.
func writePartitionedFile(t *testing.T, n, rowGroupRows int, kv map[string]string) string {
	t.Helper()
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
		arrow.NewField("score", arrow.Float64, false),
	)
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	for i := 0; i < n; i++ {
		ib.Append(int64(i))
		sb.Append(fmt.Sprintf("name-%d", i%31))
		fb.Append(float64(i) / 7)
	}
	path := filepath.Join(t.TempDir(), "part.gpq")
	err := parquet.WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish(), fb.Finish()})},
		parquet.WriterOptions{RowGroupRows: rowGroupRows, PageRows: 128, KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// renderRows renders every row as one canonical string, sorted, so
// "byte-identical after sort" reduces to sorted-slice equality regardless
// of partition interleaving.
func renderRows(batches []*arrow.RecordBatch) []string {
	var rows []string
	for _, b := range batches {
		for i := 0; i < b.NumRows(); i++ {
			var sb strings.Builder
			for c := 0; c < b.NumCols(); c++ {
				fmt.Fprintf(&sb, "|%s", b.Column(c).GetScalar(i))
			}
			rows = append(rows, sb.String())
		}
	}
	sort.Strings(rows)
	return rows
}

// collectRows opens and drains the partitions one after another.
func collectRows(t *testing.T, res *ScanResult) []string {
	t.Helper()
	var batches []*arrow.RecordBatch
	for p := 0; p < res.Partitions; p++ {
		s, err := res.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, drain(t, s)...)
	}
	return renderRows(batches)
}

// collectRowsConcurrently opens every partition and drains each from its
// own goroutine, as the engine's workers do.
func collectRowsConcurrently(t *testing.T, res *ScanResult) []string {
	t.Helper()
	streams := make([]Stream, res.Partitions)
	for p := range streams {
		s, err := res.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		streams[p] = s
	}
	parts := make([][]*arrow.RecordBatch, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for p, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			for {
				b, err := s.Next()
				if err != nil {
					if err != io.EOF {
						errs[p] = err
					}
					return
				}
				parts[p] = append(parts[p], b)
			}
		}()
	}
	wg.Wait()
	var batches []*arrow.RecordBatch
	for p := range parts {
		if errs[p] != nil {
			t.Fatal(errs[p])
		}
		batches = append(batches, parts[p]...)
	}
	return renderRows(batches)
}

func equalRows(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row count %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs: %q vs %q", what, i, got[i], want[i])
		}
	}
}

func TestRowGroupPartitionedScanMatchesSingle(t *testing.T) {
	path := writePartitionedFile(t, 2000, 250, nil) // 8 row groups
	tbl, err := NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  ScanRequest
	}{
		{"full", ScanRequest{Limit: -1}},
		{"projection", ScanRequest{Projection: []int{2, 0}, Limit: -1}},
		{"predicate", ScanRequest{
			Filters: []logical.Expr{&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("id"), R: logical.Lit(int64(137))}},
			Limit:   -1,
		}},
		{"predicate+projection+limit", ScanRequest{
			Projection: []int{0, 1},
			// name-7 occurs in every row group, so no plan-time pruning:
			// the scan stays split across partitions.
			Filters: []logical.Expr{&logical.BinaryExpr{Op: logical.OpEq, L: logical.Col("name"), R: logical.Lit("name-7")}},
			// Limit larger than the ~65 matching rows: exercised but
			// deterministic under any partitioning.
			Limit: 500,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single := tc.req
			single.Partitions = 1
			resS, err := tbl.Scan(single)
			if err != nil {
				t.Fatal(err)
			}
			if resS.Partitions != 1 {
				t.Fatalf("single-partition scan got %d partitions", resS.Partitions)
			}
			want := collectRows(t, resS)

			multi := tc.req
			multi.Partitions = 4
			multi.Readahead = 2
			resM, err := tbl.Scan(multi)
			if err != nil {
				t.Fatal(err)
			}
			if resM.Partitions < 2 {
				t.Fatalf("multi-partition scan got %d partitions, want >1", resM.Partitions)
			}
			equalRows(t, collectRows(t, resM), want, tc.name)

			// Drained concurrently, the partitions share the scan's chunks:
			// every row comes back once, and every row group that survived
			// plan-time pruning is scanned once.
			resC, err := tbl.Scan(multi)
			if err != nil {
				t.Fatal(err)
			}
			equalRows(t, collectRowsConcurrently(t, resC), want, tc.name+" concurrent")
			var survivors int64
			if _, err := fmt.Sscanf(resC.Detail, "rowgroups=%d", &survivors); err != nil {
				t.Fatalf("detail %q: %v", resC.Detail, err)
			}
			if got := resC.Runtime.RowGroupsScanned.Load(); got != survivors {
				t.Fatalf("row_groups_scanned = %d, want the %d surviving groups", got, survivors)
			}
		})
	}
}

func TestRowGroupPartitionCountAndDetail(t *testing.T) {
	path := writePartitionedFile(t, 2000, 250, nil) // 8 row groups
	tbl, err := NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(ScanRequest{Limit: -1, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A single 8-row-group file must split into all 4 requested partitions.
	if res.Partitions != 4 {
		t.Fatalf("partitions = %d, want 4", res.Partitions)
	}
	if !strings.Contains(res.Detail, "rowgroups=8") || !strings.Contains(res.Detail, "rg") {
		t.Fatalf("detail missing row-group ranges: %q", res.Detail)
	}
	// 8 row groups are fewer than the 16 chunks 4 partitions share, so
	// each is cut at its page stripe (128 rows) into two ranges.
	if !strings.HasSuffix(res.Detail, " scheduler=morsel units=16") ||
		!strings.Contains(res.Detail, "part.gpq[rg0:0-128]") {
		t.Fatalf("detail missing the scan's morsel scheduling: %q", res.Detail)
	}
	one, err := tbl.Scan(ScanRequest{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Detail != "rowgroups=8 pruned=0 u0=part.gpq[rg0-7]" {
		t.Fatalf("single-partition detail = %q", one.Detail)
	}
	// Requesting more partitions than page stripes clamps to the stripe
	// count.
	res2, err := tbl.Scan(ScanRequest{Limit: -1, Partitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Partitions != 16 {
		t.Fatalf("partitions = %d, want 16 (page-stripe clamp)", res2.Partitions)
	}
}

func TestRowGroupLevelPlanPruning(t *testing.T) {
	// Ascending ids: a range predicate must prune most row groups at plan
	// time using chunk statistics, shrinking the partition count.
	path := writePartitionedFile(t, 2000, 250, nil)
	tbl, err := NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(ScanRequest{
		Filters:    []logical.Expr{&logical.BinaryExpr{Op: logical.OpGtEq, L: logical.Col("id"), R: logical.Lit(int64(1750))}},
		Limit:      -1,
		Partitions: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 7 of 8 groups pruned; the survivor splits at its page stripe.
	if res.Partitions != 2 {
		t.Fatalf("partitions = %d, want 2 (7 of 8 groups pruned)", res.Partitions)
	}
	if !strings.Contains(res.Detail, "pruned=7") {
		t.Fatalf("detail should report 7 pruned groups: %q", res.Detail)
	}
	rows := collectRows(t, res)
	if len(rows) != 250 {
		t.Fatalf("rows = %d, want 250", len(rows))
	}
}

func TestSortOrderDroppedWhenFileSplit(t *testing.T) {
	path := writePartitionedFile(t, 2000, 250, map[string]string{"sort_order": "id"})
	tbl, err := NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	// Unsplit: the declared order survives.
	res1, err := tbl.Scan(ScanRequest{Limit: -1, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.SortOrder) != 1 || res1.SortOrder[0].Name != "id" {
		t.Fatalf("single-partition scan lost sort order: %+v", res1.SortOrder)
	}
	// Split across partitions: the order must be dropped.
	res4, err := tbl.Scan(ScanRequest{Limit: -1, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Partitions != 4 {
		t.Fatalf("partitions = %d, want 4", res4.Partitions)
	}
	if res4.SortOrder != nil {
		t.Fatalf("sort order must be dropped when a file splits: %+v", res4.SortOrder)
	}
}

// TestScanChunks: one partition reads one chunk holding every row group
// in file order; more partitions share about four chunks each, largest
// first, and every row group lands in exactly one chunk.
func TestScanChunks(t *testing.T) {
	var units []scanUnit
	for rg, rows := range []int64{10, 50, 20, 80, 30, 5, 60, 40, 70, 15} {
		units = append(units, scanUnit{file: "f.gpq", ranges: []parquet.RowRange{{RowGroup: rg, End: rows}}, rows: rows})
	}
	groupsOf := func(u scanUnit) []int {
		var out []int
		for _, r := range u.ranges {
			out = append(out, r.RowGroup)
		}
		return out
	}
	one := scanChunks(units, 1)
	if len(one) != 1 || len(one[0]) != 1 || !slices.Equal(groupsOf(one[0][0]), []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("one partition: chunks %+v, want one unit of rg0-9 in order", one)
	}
	chunks := scanChunks(units, 2)
	if len(chunks) != 8 {
		t.Fatalf("two partitions: %d chunks, want 8", len(chunks))
	}
	seen := map[int]int{}
	prev := int64(-1)
	for i, chunk := range chunks {
		var rows int64
		for _, u := range chunk {
			rows += u.rows
			for _, rg := range groupsOf(u) {
				seen[rg]++
			}
		}
		if i > 0 && rows > prev {
			t.Fatalf("chunk %d holds %d rows after one of %d: not largest first", i, rows, prev)
		}
		prev = rows
	}
	for rg := range units {
		if seen[rg] != 1 {
			t.Fatalf("row group %d in %d chunks, want 1", rg, seen[rg])
		}
	}
}

// TestSplitRowGroupCountsOnce: a row group cut into ranges counts once in
// RowGroupsScanned and RowGroupsPruned, whichever scanners read its
// pieces. Row group 0 holds x in 0-49, 100-149, …, 400-449, one band per
// 50-row page, so its chunk statistics keep any x below 450 while every
// page outside the predicate's band is pruned; row group 1 (x from 500)
// is pruned at plan time.
func TestSplitRowGroupCountsOnce(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	xb := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := range int64(500) {
		if i < 250 {
			xb.Append(i/50*100 + i%50)
		} else {
			xb.Append(500 + i)
		}
	}
	path := filepath.Join(t.TempDir(), "bands.gpq")
	if err := parquet.WriteFile(path, schema, []*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{xb.Finish()})},
		parquet.WriterOptions{RowGroupRows: 250, PageRows: 50}); err != nil {
		t.Fatal(err)
	}
	tbl, err := NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	between := func(lo, hi int64) []logical.Expr {
		return []logical.Expr{
			&logical.BinaryExpr{Op: logical.OpGtEq, L: logical.Col("x"), R: logical.Lit(lo)},
			&logical.BinaryExpr{Op: logical.OpLt, L: logical.Col("x"), R: logical.Lit(hi)},
		}
	}
	for _, tc := range []struct {
		name                    string
		lo, hi                  int64
		rows, scanned, pruned   int64
		pagesPruned, partitions int
	}{
		// Every piece of row group 0 is page-pruned: it counts as one
		// pruned row group, beside row group 1.
		{"all-pieces-pruned", 60, 90, 0, 0, 2, 5, 4},
		// One piece matches, four are pruned: one scanned row group.
		{"one-piece-matches", 100, 150, 50, 1, 1, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tbl.Scan(ScanRequest{Filters: between(tc.lo, tc.hi), Limit: -1, Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Partitions != tc.partitions || !strings.Contains(res.Detail, "rowgroups=1 pruned=1") ||
				!strings.Contains(res.Detail, "units=5") {
				t.Fatalf("partitions=%d detail=%q: want row group 0 cut into its five pages", res.Partitions, res.Detail)
			}
			if got := int64(len(collectRowsConcurrently(t, res))); got != tc.rows {
				t.Fatalf("rows = %d, want %d", got, tc.rows)
			}
			rt := res.Runtime
			if got := rt.RowGroupsScanned.Load(); got != tc.scanned {
				t.Errorf("row groups scanned = %d, want %d", got, tc.scanned)
			}
			if got := rt.RowGroupsPruned.Load(); got != tc.pruned {
				t.Errorf("row groups pruned = %d, want %d", got, tc.pruned)
			}
			if got := rt.PagesPruned.Load(); got != int64(tc.pagesPruned) {
				t.Errorf("pages pruned = %d, want %d", got, tc.pagesPruned)
			}
		})
	}
}
