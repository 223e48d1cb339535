package exec

import (
	"path/filepath"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
)

func TestTableScanExplainShowsRowGroupPartitions(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false))
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < 800; i++ {
		b.Append(int64(i))
	}
	path := filepath.Join(t.TempDir(), "one.gpq")
	if err := parquet.WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{b.Finish()})},
		parquet.WriterOptions{RowGroupRows: 100, PageRows: 50}); err != nil {
		t.Fatal(err)
	}
	tbl, err := catalog.NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(catalog.ScanRequest{Limit: -1, Partitions: 4, Readahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	scan := NewTableScanExec("one", res)
	line := scan.String()
	if !strings.Contains(line, "partitions=4") {
		t.Fatalf("EXPLAIN missing partitions=4: %q", line)
	}
	if !strings.Contains(line, "rg") {
		t.Fatalf("EXPLAIN missing row-group ranges: %q", line)
	}
	// 8 row groups are fewer than the 16 chunks 4 partitions share, so
	// each is cut at its page stripe into two ranges.
	if !strings.HasSuffix(line, " scheduler=morsel units=16") || !strings.Contains(line, "one.gpq[rg0:0-50]") {
		t.Fatalf("EXPLAIN missing the scan's morsel scheduling: %q", line)
	}
	// The split scan still returns every row.
	batches, err := CollectPlan(physical.NewExecContext(), scan)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, batch := range batches {
		total += batch.NumRows()
	}
	if total != 800 {
		t.Fatalf("rows = %d, want 800", total)
	}
}

func TestExchangeBufferDepth(t *testing.T) {
	ctx := physical.NewExecContext()
	if ctx.ExchangeBufferDepth() != physical.DefaultExchangeBuffer {
		t.Fatalf("default depth = %d", ctx.ExchangeBufferDepth())
	}
	ctx.ExchangeBuffer = 16
	if ctx.ExchangeBufferDepth() != 16 {
		t.Fatalf("override depth = %d", ctx.ExchangeBufferDepth())
	}
	ctx.ExchangeBuffer = 0
	if ctx.ExchangeBufferDepth() != physical.DefaultExchangeBuffer {
		t.Fatalf("zero depth should fall back: %d", ctx.ExchangeBufferDepth())
	}
}

// TestScanPruningMetrics checks the scan's pruning counters against a
// hand-computed layout: 800 sequential int64 rows in 100-row row groups
// (8 groups) with 50-row pages (2 per group). The predicate id > 649
// must prune groups 0-5 by min/max stats (max 99..599 < 650), decode
// groups 6 and 7, and skip group 6's first page (rows 600-649).
func TestScanPruningMetrics(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false))
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < 800; i++ {
		b.Append(int64(i))
	}
	path := filepath.Join(t.TempDir(), "pruned.gpq")
	if err := parquet.WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{b.Finish()})},
		parquet.WriterOptions{RowGroupRows: 100, PageRows: 50}); err != nil {
		t.Fatal(err)
	}
	tbl, err := catalog.NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	// At one partition group 6 leaves as its second page, whole, and group
	// 7's two pages are gathered into the row group's one batch. At two
	// partitions the two surviving groups are cut at their page stripes,
	// so every stripe leaves whole; each group still counts once.
	for _, tc := range []struct {
		partitions         int
		zeroCopy, gathered int64
	}{{1, 50, 100}, {2, 150, 0}} {
		res, err := tbl.Scan(catalog.ScanRequest{
			Filters:    []logical.Expr{&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("id"), R: logical.Lit(int64(649))}},
			Limit:      -1,
			Partitions: tc.partitions,
			Readahead:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		scan := NewTableScanExec("pruned", res)
		batches, err := CollectPlan(physical.NewExecContext(), scan)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, batch := range batches {
			total += batch.NumRows()
		}
		if total != 150 {
			t.Fatalf("p%d: rows = %d, want 150", tc.partitions, total)
		}
		s := scan.Metrics().Snapshot()
		if got := s.OutputRows; got != 150 {
			t.Fatalf("p%d: output_rows = %d, want 150", tc.partitions, got)
		}
		for _, m := range []struct {
			name string
			want int64
		}{
			{"row_groups_pruned", 6},
			{"row_groups_scanned", 2},
			{"pages_pruned", 1},
			{"bloom_skipped", 0},
			{"rows_zero_copy", tc.zeroCopy},
			{"rows_gathered", tc.gathered},
		} {
			if got := s.ExtraValue(m.name); got != m.want {
				t.Errorf("p%d: %s = %d, want %d (metrics: %s)", tc.partitions, m.name, got, m.want, s.String())
			}
		}
	}
}
