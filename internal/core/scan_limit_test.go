package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/csvio"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
	"gofusion/internal/testutil"
)

// limitRows returns 100 rows (id 0..99, name) in 10-row batches.
func limitRows() (*arrow.Schema, []*arrow.RecordBatch) {
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, true), arrow.NewField("name", arrow.String, true))
	var batches []*arrow.RecordBatch
	for b := 0; b < 10; b++ {
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		sb := arrow.NewStringBuilder(arrow.String)
		for i := b * 10; i < b*10+10; i++ {
			ib.Append(int64(i))
			sb.Append(fmt.Sprintf("n%02d", i))
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish()}))
	}
	return schema, batches
}

// registerLimitSources registers the rows as a MemTable, a CSV file, an
// NDJSON file, a sealed StreamTable and a GPQ file of ten row groups.
func registerLimitSources(t *testing.T, s *SessionContext, dir string) []string {
	t.Helper()
	schema, batches := limitRows()
	var csv, ndjson strings.Builder
	csv.WriteString("id,name\n")
	for _, b := range batches {
		ids, names := b.Column(0).(*arrow.Int64Array), b.Column(1).(*arrow.StringArray)
		for i := 0; i < b.NumRows(); i++ {
			fmt.Fprintf(&csv, "%d,%s\n", ids.Value(i), names.Value(i))
			fmt.Fprintf(&ndjson, "{\"id\": %d, \"name\": %q}\n", ids.Value(i), names.Value(i))
		}
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gpq := filepath.Join(dir, "t.gpq")
	if err := parquet.WriteFile(gpq, schema, batches, parquet.WriterOptions{RowGroupRows: 10}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.RegisterBatches("mem_t", schema, batches))
	must(s.RegisterCSV("csv_t", write("t.csv", csv.String()), csvio.DefaultOptions()))
	must(s.RegisterJSON("json_t", write("t.json", ndjson.String())))
	must(s.RegisterGPQ("gpq_t", gpq))
	stream, err := s.RegisterStream("stream_t", schema, "")
	must(err)
	must(stream.Append(batches...))
	stream.Seal()
	return []string{"mem_t", "csv_t", "json_t", "stream_t", "gpq_t"}
}

// TestScanLimitsOverEveryProvider runs LIMIT 0, LIMIT 5, LIMIT 5 OFFSET
// 3 and LIMIT 5 under a filter no provider applies exactly over every
// built-in provider at one and four partitions: each returns the
// expected row count and schema, and where ORDER BY makes the order
// total, the rows TightDB returns.
func TestScanLimitsOverEveryProvider(t *testing.T) {
	schema, batches := limitRows()
	tight := baseline.New(2)
	tight.RegisterBatches("t", schema, batches)
	queries := []struct {
		sql     string
		rows    int
		ordered bool
	}{
		{"SELECT id, name FROM %s LIMIT 0", 0, false},
		{"SELECT id, name FROM %s LIMIT 5", 5, false},
		{"SELECT id, name FROM %s LIMIT 5 OFFSET 3", 5, false},
		{"SELECT id, name FROM %s WHERE id %% 7 = 3 LIMIT 5", 5, false},
		{"SELECT id, name FROM %s ORDER BY id LIMIT 0", 0, true},
		{"SELECT id, name FROM %s ORDER BY id LIMIT 5 OFFSET 3", 5, true},
		{"SELECT id, name FROM %s WHERE id %% 7 = 3 ORDER BY id DESC LIMIT 5", 5, true},
	}
	for _, parts := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.TargetPartitions = parts
		s := NewSession(cfg)
		defer s.Close()
		for _, table := range registerLimitSources(t, s, t.TempDir()) {
			for _, q := range queries {
				desc := fmt.Sprintf("p%d %s", parts, fmt.Sprintf(q.sql, table))
				df, err := s.SQL(fmt.Sprintf(q.sql, table))
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				got, err := df.Collect()
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				out := df.Schema().ToArrow()
				if out.NumFields() != 2 || out.Field(0).Name != "id" || out.Field(1).Name != "name" {
					t.Fatalf("%s: schema %s, want (id, name)", desc, out)
				}
				all, err := compute.ConcatBatches(out, got)
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				if all.NumRows() != q.rows {
					t.Fatalf("%s: %d rows, want %d", desc, all.NumRows(), q.rows)
				}
				if strings.Contains(q.sql, "WHERE") {
					ids := all.Column(0).(*arrow.Int64Array)
					for i := 0; i < ids.Len(); i++ {
						if ids.Value(i)%7 != 3 {
							t.Fatalf("%s: row %d has id %d", desc, i, ids.Value(i))
						}
					}
				}
				if !q.ordered {
					continue
				}
				want, err := tight.Query(fmt.Sprintf(q.sql, "t"))
				if err != nil {
					t.Fatalf("%s: TightDB: %v", desc, err)
				}
				if d := testutil.DiffOrdered(all, want); d != "" {
					t.Fatalf("%s: differs from TightDB: %s", desc, d)
				}
			}
		}
	}
}

// TestLogicalScanFetchZeroMeansNone lowers hand-built scans over every
// built-in provider: a scan's Fetch follows the scan API, so 0 (what
// NewTableScan sets) reads every row and EXPLAIN prints no fetch, while a
// positive Fetch prints and bounds the provider's rows.
func TestLogicalScanFetchZeroMeansNone(t *testing.T) {
	for _, parts := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.TargetPartitions = parts
		s := NewSession(cfg)
		defer s.Close()
		for _, table := range registerLimitSources(t, s, t.TempDir()) {
			src, err := s.resolveTable(table)
			if err != nil {
				t.Fatal(err)
			}
			for _, fetch := range []int64{0, 5} {
				desc := fmt.Sprintf("p%d %s fetch %d", parts, table, fetch)
				scan := logical.NewTableScan(table, src)
				if scan.Fetch != 0 {
					t.Fatalf("%s: NewTableScan set Fetch %d, want 0", desc, scan.Fetch)
				}
				scan.Fetch = fetch
				if printed := strings.Contains(scan.String(), "fetch="); printed != (fetch > 0) {
					t.Errorf("%s: %q prints a fetch: %t", desc, scan.String(), printed)
				}
				pp, err := s.lowerPlan(scan)
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				batches, err := s.ExecutePlan(pp)
				if err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				rows := 0
				for _, b := range batches {
					rows += b.NumRows()
				}
				if fetch == 0 && rows != 100 || fetch > 0 && (rows < int(fetch) || rows == 100) {
					t.Errorf("%s: %d rows", desc, rows)
				}
			}
		}
	}
}
