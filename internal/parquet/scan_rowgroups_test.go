package parquet

import (
	"io"
	"path/filepath"
	"slices"
	"testing"

	"gofusion/internal/arrow"
)

// writeMultiGroupFile writes n rows of (id, name) into one file with
// rowGroupRows-row row groups.
func writeMultiGroupFile(t *testing.T, n, rowGroupRows int) string {
	t.Helper()
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
	)
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		ib.Append(int64(i))
		sb.Append("n" + arrow.Int64Scalar(int64(i%13)).String())
	}
	path := filepath.Join(t.TempDir(), "multi.gpq")
	err := WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish()})},
		WriterOptions{RowGroupRows: rowGroupRows, PageRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func collectIDs(t *testing.T, sc *Scanner) []int64 {
	t.Helper()
	var out []int64
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		col := b.Column(0).(*arrow.Int64Array)
		for i := 0; i < b.NumRows(); i++ {
			out = append(out, col.Value(i))
		}
	}
}

func TestScanRowGroupSubset(t *testing.T) {
	path := writeMultiGroupFile(t, 1000, 100)
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.Metadata().NumRowGroups() != 10 {
		t.Fatalf("row groups = %d, want 10", fr.Metadata().NumRowGroups())
	}
	whole := func(groups ...int) []RowRange {
		var out []RowRange
		for _, rg := range groups {
			out = append(out, RowRange{RowGroup: rg, End: fr.Metadata().RowGroupRows(rg)})
		}
		return out
	}
	// Two disjoint subsets cover the file exactly.
	scA, err := fr.Scan(ScanOptions{Ranges: whole(0, 2, 4, 6, 8), Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	scB, err := fr.Scan(ScanOptions{Ranges: whole(1, 3, 5, 7, 9), Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	ids := append(collectIDs(t, scA), collectIDs(t, scB)...)
	if len(ids) != 1000 {
		t.Fatalf("rows = %d, want 1000", len(ids))
	}
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	// Subset scans honor the limit.
	scL, err := fr.Scan(ScanOptions{Ranges: whole(3, 4), Limit: 150})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectIDs(t, scL); len(got) != 150 || got[0] != 300 {
		t.Fatalf("limited subset scan wrong: len=%d first=%v", len(got), got[0])
	}
	// Out-of-range indexes and rows are rejected.
	if _, err := fr.Scan(ScanOptions{Ranges: []RowRange{{RowGroup: 10, End: 1}}, Limit: -1}); err == nil {
		t.Fatal("row group 10 should be out of range")
	}
	for _, r := range []RowRange{{RowGroup: 0, Start: -1, End: 10}, {RowGroup: 0, Start: 20, End: 10}, {RowGroup: 0, End: 101}} {
		if _, err := fr.Scan(ScanOptions{Ranges: []RowRange{r}}); err == nil {
			t.Fatalf("range %s should be out of range", r)
		}
	}
}

func TestScanReadaheadMatchesSynchronous(t *testing.T) {
	path := writeMultiGroupFile(t, 1000, 100)
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	pred := &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(250)}
	run := func(readahead int) []int64 {
		sc, err := fr.Scan(ScanOptions{Predicate: pred, Limit: 400, Readahead: readahead})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		return collectIDs(t, sc)
	}
	sync := run(0)
	pipe := run(2)
	if len(sync) != len(pipe) {
		t.Fatalf("row counts differ: sync=%d pipelined=%d", len(sync), len(pipe))
	}
	for i := range sync {
		if sync[i] != pipe[i] {
			t.Fatalf("row %d differs: %d vs %d", i, sync[i], pipe[i])
		}
	}
	if len(sync) != 400 {
		t.Fatalf("limit not applied: %d", len(sync))
	}
}

func TestScanReadaheadEarlyClose(t *testing.T) {
	path := writeMultiGroupFile(t, 1000, 100)
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(ScanOptions{Readahead: 2, BatchRows: 50, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	// Abandon mid-scan: Close must stop the producer without deadlock,
	// and stay idempotent.
	sc.Close()
	sc.Close()
	// Close before first Next is also safe.
	sc2, err := fr.Scan(ScanOptions{Readahead: 1, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	sc2.Close()
}

// TestScanRowRangesTileRowGroups cuts every row group into 1 to 6 ranges
// with SplitRowGroup and reads each range with a scanner of its own. The
// ranges tile their row group at page boundaries, and together they read
// every row exactly once — with and without a predicate (which prunes
// pages), readahead and a limit per range — as one scan of the file does.
func TestScanRowRangesTileRowGroups(t *testing.T) {
	path := writeMultiGroupFile(t, 1000, 300) // 300, 300, 300, 100 rows; 64-row pages
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	meta := fr.Metadata()
	scan := func(opts ScanOptions) ([]int64, *Scanner) {
		sc, err := fr.Scan(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		return collectIDs(t, sc), sc
	}
	for n := 1; n <= 6; n++ {
		var ranges []RowRange
		for rg := range meta.NumRowGroups() {
			rows := meta.RowGroupRows(rg)
			pieces := meta.SplitRowGroup(rg, n)
			stripes := (rows + 63) / 64
			if want := min(int64(n), stripes); int64(len(pieces)) != want {
				t.Fatalf("n=%d: row group %d cut into %d ranges, want %d: %v", n, rg, len(pieces), want, pieces)
			}
			for i, r := range pieces {
				switch {
				case i == 0 && r.Start != 0, i > 0 && r.Start != pieces[i-1].End,
					i == len(pieces)-1 && r.End != rows, r.Start%64 != 0, r.Start >= r.End:
					t.Fatalf("n=%d: ranges %v do not tile row group %d at page boundaries", n, pieces, rg)
				}
			}
			ranges = append(ranges, pieces...)
		}
		for _, pred := range []Predicate{nil, &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(250)}} {
			for _, readahead := range []int{0, 2} {
				want, whole := scan(ScanOptions{Predicate: pred, Readahead: readahead})
				var got []int64
				pages := 0
				for _, r := range ranges {
					ids, sc := scan(ScanOptions{Predicate: pred, Readahead: readahead, Ranges: []RowRange{r}})
					got = append(got, ids...)
					pages += sc.PagesSkipped
					// A limit cuts the range's own rows, in order.
					limited, _ := scan(ScanOptions{Predicate: pred, Readahead: readahead, Ranges: []RowRange{r}, Limit: 7})
					if len(limited) != min(7, len(ids)) || !slices.Equal(limited, ids[:len(limited)]) {
						t.Fatalf("n=%d %s: limit 7 read %v of %v", n, r, limited, ids)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d pred=%v readahead=%d: ranges read %d rows, one scan %d", n, pred != nil, readahead, len(got), len(want))
				}
				if pages != whole.PagesSkipped {
					t.Fatalf("n=%d: ranges skipped %d pages, one scan %d", n, pages, whole.PagesSkipped)
				}
				if pred != nil && pages == 0 {
					t.Fatal("the predicate pruned no page")
				}
			}
		}
	}
}
