package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/csvio"
	"gofusion/internal/jsonio"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
)

// limitTables returns the same 100 rows (id 0..99, name) through every
// built-in provider; the GPQ file has ten 10-row row groups.
func limitTables(t *testing.T) map[string]TableProvider {
	t.Helper()
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, true), arrow.NewField("name", arrow.String, true))
	var batches []*arrow.RecordBatch
	var csv, ndjson strings.Builder
	csv.WriteString("id,name\n")
	for b := 0; b < 10; b++ {
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		sb := arrow.NewStringBuilder(arrow.String)
		for i := b * 10; i < b*10+10; i++ {
			ib.Append(int64(i))
			sb.Append(fmt.Sprintf("n%d", i))
			fmt.Fprintf(&csv, "%d,n%d\n", i, i)
			fmt.Fprintf(&ndjson, "{\"id\": %d, \"name\": \"n%d\"}\n", i, i)
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish()}))
	}
	dir := t.TempDir()
	tables := map[string]TableProvider{}
	mem, err := NewMemTable(schema, [][]*arrow.RecordBatch{batches[:5], batches[5:]})
	if err != nil {
		t.Fatal(err)
	}
	tables["mem"] = mem
	csvPath := filepath.Join(dir, "t.csv")
	jsonPath := filepath.Join(dir, "t.json")
	gpqPath := filepath.Join(dir, "t.gpq")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, []byte(ndjson.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := parquet.WriteFile(gpqPath, schema, batches, parquet.WriterOptions{RowGroupRows: 10}); err != nil {
		t.Fatal(err)
	}
	if tables["csv"], err = NewCSVTable(csvPath, nil, csvio.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if tables["json"], err = NewJSONTable(jsonPath, nil, jsonio.Options{}); err != nil {
		t.Fatal(err)
	}
	if tables["gpq"], err = NewGPQTable([]string{gpqPath}); err != nil {
		t.Fatal(err)
	}
	stream := NewStreamTable(schema)
	if err := stream.Append(batches...); err != nil {
		t.Fatal(err)
	}
	stream.Seal()
	tables["stream"] = stream
	return tables
}

// TestScanLimitZeroMeansNone: a ScanRequest.Limit of 0 or less reads
// every row; a positive one bounds each partition, unless a filter the
// provider cannot apply exactly leaves the rows to the engine.
func TestScanLimitZeroMeansNone(t *testing.T) {
	idLess := &logical.BinaryExpr{Op: logical.OpLt, L: logical.Col("id"), R: logical.Lit(int64(30))}
	inexact := &logical.ScalarFunc{Name: "weird", Args: []logical.Expr{logical.Col("name")}}
	for name, tbl := range limitTables(t) {
		for _, parts := range []int{1, 4} {
			scan := func(req ScanRequest) (*ScanResult, []int) {
				t.Helper()
				req.Partitions = parts
				res, err := tbl.Scan(req)
				if err != nil {
					t.Fatal(err)
				}
				rows := make([]int, res.Partitions)
				for p := range rows {
					s, err := res.Open(p)
					if err != nil {
						t.Fatal(err)
					}
					rows[p] = countRows(drain(t, s))
				}
				return res, rows
			}
			sum := func(rows []int) int {
				n := 0
				for _, r := range rows {
					n += r
				}
				return n
			}
			desc := fmt.Sprintf("%s p%d", name, parts)
			for _, limit := range []int64{NoLimit, -1} {
				if _, rows := scan(ScanRequest{Limit: limit}); sum(rows) != 100 {
					t.Errorf("%s limit %d: %d rows, want 100", desc, limit, sum(rows))
				}
			}
			_, rows := scan(ScanRequest{Limit: 5})
			if sum(rows) < 5 {
				t.Errorf("%s limit 5: %d rows in all", desc, sum(rows))
			}
			for p, r := range rows {
				if r > 5 {
					t.Errorf("%s limit 5: partition %d returned %d rows", desc, p, r)
				}
			}
			if _, rows := scan(ScanRequest{Limit: 5, Filters: []logical.Expr{inexact}}); sum(rows) != 100 {
				t.Errorf("%s inexact filter, limit 5: %d rows, want all 100", desc, sum(rows))
			}
			res, rows := scan(ScanRequest{Limit: 5, Filters: []logical.Expr{idLess}})
			if res.ExactFilters[0] {
				for p, r := range rows {
					if r > 5 {
						t.Errorf("%s exact filter, limit 5: partition %d returned %d rows", desc, p, r)
					}
				}
			} else if sum(rows) != 100 {
				t.Errorf("%s inexact filter, limit 5: %d rows, want all 100", desc, sum(rows))
			}
		}
	}
}
