package catalog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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

func drain(t *testing.T, s Stream) []*arrow.RecordBatch {
	t.Helper()
	defer s.Close()
	var out []*arrow.RecordBatch
	for {
		b, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

func countRows(bs []*arrow.RecordBatch) int {
	n := 0
	for _, b := range bs {
		n += b.NumRows()
	}
	return n
}

func TestMemoryCatalogAndSchema(t *testing.T) {
	c := NewMemoryCatalog()
	sp, ok := c.SchemaByName("PUBLIC")
	if !ok {
		t.Fatal("public schema missing")
	}
	ms := sp.(*MemorySchema)
	schema := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	mt, _ := NewMemTable(schema, nil)
	ms.Register("T1", mt)
	if _, ok := ms.Table("t1"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if len(ms.TableNames()) != 1 {
		t.Fatal("table names wrong")
	}
	ms.Deregister("t1")
	if _, ok := ms.Table("t1"); ok {
		t.Fatal("deregister failed")
	}
	c.RegisterSchema("extra", NewMemorySchema())
	if len(c.SchemaNames()) != 2 {
		t.Fatal("schema names wrong")
	}
}

// TestLookupStamps: a table's stamp is renewed by each Register of its
// name and each Touch, reads 0 once it is gone, and is never reproduced by
// a replacement schema.
func TestLookupStamps(t *testing.T) {
	c := NewMemoryCatalog()
	sp, _ := c.SchemaByName("public")
	ms := sp.(*MemorySchema)
	mt, _ := NewMemTable(arrow.NewSchema(arrow.NewField("x", arrow.Int64, false)), nil)
	stamp := func(table string) uint64 {
		_, st, _ := c.Lookup("public", table)
		return st
	}
	if stamp("t") != 0 {
		t.Fatal("a missing table has a stamp")
	}
	ms.Register("t", mt)
	ms.Register("u", mt)
	s1, u := stamp("t"), stamp("u")
	ms.Touch("t")
	s2 := stamp("t")
	ms.Register("T", mt)
	s3 := stamp("t")
	if s1 == 0 || s2 == s1 || s3 == s2 || s3 == s1 {
		t.Fatalf("stamps %d, %d, %d: want each write to renew the stamp", s1, s2, s3)
	}
	if stamp("u") != u {
		t.Fatal("writes to t changed the stamp of u")
	}
	ms.Deregister("t")
	if stamp("t") != 0 {
		t.Fatal("a dropped table kept its stamp")
	}
	fresh := NewMemorySchema()
	fresh.Register("u", mt)
	c.RegisterSchema("public", fresh)
	if got := stamp("u"); got == u || got == 0 {
		t.Fatalf("replacement schema's table has stamp %d (old %d)", got, u)
	}
	if _, _, ok := c.Lookup("nope", "u"); ok {
		t.Fatal("lookup in a missing schema found it")
	}
}

// TestMemTableWithAppendedCompactsTail: appends concatenate into the last
// partition until it holds batchRows rows, then start a new one; they
// check only the appended batches and leave every table they grew from,
// including one whose partition slices have spare capacity, as it was.
func TestMemTableWithAppendedCompactsTail(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	mk := func(vals ...int64) *arrow.RecordBatch {
		return arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(vals)})
	}
	values := func(m *MemTable) [][]int64 {
		var out [][]int64
		for _, part := range m.partitions {
			var vs []int64
			for _, b := range part {
				vs = append(vs, b.Column(0).(*arrow.Int64Array).Values()...)
			}
			out = append(out, vs)
		}
		return out
	}
	tail := make([]*arrow.RecordBatch, 1, 4) // spare capacity an append must not write into
	tail[0] = mk(1)
	base, err := NewMemTable(schema, [][]*arrow.RecordBatch{tail})
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.WithAppended([]*arrow.RecordBatch{mk(2), mk(3)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.WithAppended([]*arrow.RecordBatch{mk(9)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(values(base), values(a), values(b)); got != "[[1]] [[1 2 3]] [[1 9]]" {
		t.Fatalf("base, a, b = %s, want [[1]] [[1 2 3]] [[1 9]]", got)
	}
	if n := len(a.partitions[0]); n != 1 {
		t.Fatalf("compacted tail holds %d batches, want 1", n)
	}
	a, err = a.WithAppended([]*arrow.RecordBatch{mk(4, 5)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err = a.WithAppended([]*arrow.RecordBatch{mk(6)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(values(a)); got != "[[1 2 3 4 5] [6]]" {
		t.Fatalf("partitions = %s, want [[1 2 3 4 5] [6]]", got)
	}
	if a.Statistics().NumRows != 6 || base.Statistics().NumRows != 1 {
		t.Fatalf("NumRows = %d and %d, want 6 and 1", a.Statistics().NumRows, base.Statistics().NumRows)
	}
	other := arrow.NewSchema(arrow.NewField("y", arrow.Int64, false))
	if _, err := a.WithAppended([]*arrow.RecordBatch{arrow.NewRecordBatch(other, []arrow.Array{arrow.NewInt64([]int64{7})})}, 4); err == nil {
		t.Fatal("appending a batch of another schema succeeded")
	}
}

func TestMemTableScanPushdown(t *testing.T) {
	schema := arrow.NewSchema(
		arrow.NewField("a", arrow.Int64, false),
		arrow.NewField("b", arrow.String, false),
	)
	mk := func(vals ...int64) *arrow.RecordBatch {
		sb := arrow.NewStringBuilder(arrow.String)
		for range vals {
			sb.Append("x")
		}
		return arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(vals), sb.Finish()})
	}
	mt, err := NewMemTable(schema, [][]*arrow.RecordBatch{
		{mk(1, 2, 3)}, {mk(4, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mt.Statistics().NumRows != 5 {
		t.Fatal("stats wrong")
	}
	res, err := mt.Scan(ScanRequest{Projection: []int{0}, Limit: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 2 || res.Schema.NumFields() != 1 {
		t.Fatal("scan shape wrong")
	}
	total := 0
	for p := 0; p < res.Partitions; p++ {
		s, err := res.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		total += countRows(drain(t, s))
	}
	// Limit applies per partition on MemTable (2 per partition max).
	if total > 4 {
		t.Fatalf("limit not applied: %d", total)
	}
	// Limit must NOT apply under unpushed filters, and a single-partition
	// request must fold both stored partitions into one stream (providers
	// may return fewer partitions than asked for, never more).
	res2, _ := mt.Scan(ScanRequest{Limit: 1, Partitions: 1,
		Filters: []logical.Expr{logical.Eq(logical.Col("a"), logical.Lit(5))}})
	if res2.Partitions != 1 {
		t.Fatalf("requested 1 partition, got %d", res2.Partitions)
	}
	s, _ := res2.Open(0)
	if countRows(drain(t, s)) != 5 {
		t.Fatal("limit must be ignored with unapplied filters")
	}
	if res2.ExactFilters[0] {
		t.Fatal("MemTable does not apply filters")
	}
}

func writeGPQ(t *testing.T, dir string, n int) string {
	t.Helper()
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
	)
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		ib.Append(int64(i))
		sb.Append("n")
	}
	path := filepath.Join(dir, "data.gpq")
	err := parquet.WriteFile(path, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish()})},
		parquet.WriterOptions{RowGroupRows: 100, PageRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGPQTableFilterPushdownExactness(t *testing.T) {
	dir := t.TempDir()
	path := writeGPQ(t, dir, 1000)
	tbl, err := NewGPQTable([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Statistics().NumRows != 1000 {
		t.Fatal("stats rows wrong")
	}
	// A compilable filter is exact and rows come back filtered.
	res, err := tbl.Scan(ScanRequest{
		Filters: []logical.Expr{
			&logical.BinaryExpr{Op: logical.OpLt, L: logical.Col("id"), R: logical.Lit(int64(10))},
		},
		Limit:      -1,
		Partitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactFilters[0] {
		t.Fatal("comparison filter should be exact")
	}
	s, _ := res.Open(0)
	if countRows(drain(t, s)) != 10 {
		t.Fatal("pushdown rows wrong")
	}
	// An uncompilable filter is inexact and ignored by the provider.
	res2, err := tbl.Scan(ScanRequest{
		Filters: []logical.Expr{
			&logical.ScalarFunc{Name: "weird", Args: []logical.Expr{logical.Col("name")}},
		},
		Limit:      -1,
		Partitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExactFilters[0] {
		t.Fatal("function filter cannot be exact")
	}
}

func TestGPQFilePruning(t *testing.T) {
	// Two files with disjoint id ranges: a filter on one range must prune
	// the other file at plan time.
	dir := t.TempDir()
	schema := arrow.NewSchema(arrow.NewField("id", arrow.Int64, false))
	write := func(name string, lo, hi int64) string {
		b := arrow.NewNumericBuilder[int64](arrow.Int64)
		for v := lo; v < hi; v++ {
			b.Append(v)
		}
		p := filepath.Join(dir, name)
		if err := parquet.WriteFile(p, schema,
			[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{b.Finish()})},
			parquet.DefaultWriterOptions()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	f1 := write("low.gpq", 0, 100)
	f2 := write("high.gpq", 1000, 1100)
	tbl, err := NewGPQTable([]string{f1, f2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(ScanRequest{
		Filters:    []logical.Expr{&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("id"), R: logical.Lit(int64(1050))}},
		Limit:      -1,
		Partitions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only one file survives pruning, so only one partition.
	if res.Partitions != 1 {
		t.Fatalf("partitions = %d, want 1 after file pruning", res.Partitions)
	}
	s, _ := res.Open(0)
	if countRows(drain(t, s)) != 49 {
		t.Fatal("rows wrong after pruning")
	}
}

func TestGPQSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	f1 := writeGPQ(t, dir, 10)
	other := filepath.Join(dir, "other.gpq")
	schema := arrow.NewSchema(arrow.NewField("different", arrow.Float64, false))
	if err := parquet.WriteFile(other, schema,
		[]*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewFloat64([]float64{1})})},
		parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGPQTable([]string{f1, other}); err == nil {
		t.Fatal("mixed schemas must be rejected")
	}
}

func TestListingTable(t *testing.T) {
	dir := t.TempDir()
	writeGPQ(t, dir, 50)
	tbl, err := ListingTable(dir, "gpq")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Statistics().NumRows != 50 {
		t.Fatal("listing stats wrong")
	}
	if _, err := ListingTable(dir, "csv"); err == nil {
		t.Fatal("no csv files should error")
	}
}

func TestCSVTableProjection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,x\n2,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := NewCSVTable(path, nil, csvio.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(ScanRequest{Projection: []int{1}, Limit: -1, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := res.Open(0)
	batches := drain(t, s)
	if countRows(batches) != 2 || batches[0].NumCols() != 1 {
		t.Fatal("csv projection wrong")
	}
	if batches[0].Column(0).(*arrow.StringArray).Value(1) != "y" {
		t.Fatal("csv values wrong")
	}
}

func TestJSONTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	if err := os.WriteFile(path, []byte("{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := NewJSONTable(path, nil, jsonio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan(ScanRequest{Limit: 2, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := res.Open(0)
	if countRows(drain(t, s)) != 2 {
		t.Fatal("json limit wrong")
	}
}

func TestCompiledPredicateAtoms(t *testing.T) {
	schema := arrow.NewSchema(
		arrow.NewField("n", arrow.Int64, true),
		arrow.NewField("s", arrow.String, true),
	)
	filters := []logical.Expr{
		&logical.BinaryExpr{Op: logical.OpGtEq, L: logical.Col("n"), R: logical.Lit(int64(5))},
		&logical.Like{E: logical.Col("s"), Pattern: logical.Lit("ab%")},
		&logical.InList{E: logical.Col("n"), List: []logical.Expr{logical.Lit(int64(5)), logical.Lit(int64(7))}},
		&logical.IsNull{E: logical.Col("s"), Negated: true},
	}
	pred, exact := CompileFilters(filters, schema)
	for i, e := range exact {
		if !e {
			t.Fatalf("filter %d should compile", i)
		}
	}
	// Row-level evaluation.
	nb := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	for _, v := range []int64{5, 7, 9} {
		nb.Append(v)
	}
	sb.Append("abc")
	sb.Append("zzz")
	sb.AppendNull()
	mask, err := pred.Evaluate(map[int]arrow.Array{0: nb.Finish(), 1: sb.Finish()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: n=5 in-list, >=5, s=abc like ab%, not null -> true.
	if !mask.Value(0) {
		t.Fatal("row 0 should pass")
	}
	// Row 1: like fails.
	if mask.IsValid(1) && mask.Value(1) {
		t.Fatal("row 1 should fail")
	}
	// Stats pruning: n in (5,7) prunes containers above 7.
	keep := pred.KeepColumnStats(0, parquet.ColumnStats{
		Min: arrow.Int64Scalar(100), Max: arrow.Int64Scalar(200), HasMinMax: true, NumRows: 10})
	if keep {
		t.Fatal("stats should prune")
	}
	// LIKE prefix pruning on strings.
	keepS := pred.KeepColumnStats(1, parquet.ColumnStats{
		Min: arrow.StringScalar("x"), Max: arrow.StringScalar("z"), HasMinMax: true, NumRows: 10})
	if keepS {
		t.Fatal("like prefix should prune [x,z]")
	}
	// Equality probes only come from = atoms (none here).
	if len(pred.EqProbes()) != 0 {
		t.Fatal("no eq probes expected")
	}
}

// TestGPQShortFooterIsAFormatError drops one column chunk from the first
// row group's footer. A filtered scan over the file, whose row-group
// pruning reads the chunk statistics of the filtered column, must fail
// with the format error instead of indexing past the chunk list.
func TestGPQShortFooterIsAFormatError(t *testing.T) {
	path := writeGPQ(t, t.TempDir(), 1000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	dataEnd := len(data) - 8 - footerLen
	var footer map[string]any
	if err := json.Unmarshal(data[dataEnd:len(data)-8], &footer); err != nil {
		t.Fatal(err)
	}
	rg0 := footer["groups"].([]any)[0].(map[string]any)
	rg0["cols"] = rg0["cols"].([]any)[:1]
	edited, err := json.Marshal(footer)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), data[:dataEnd]...), edited...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(edited)))
	if err := os.WriteFile(path, append(out, parquet.Magic...), 0o644); err != nil {
		t.Fatal(err)
	}

	err = func() error {
		tbl, err := NewGPQTable([]string{path})
		if err != nil {
			return err
		}
		res, err := tbl.Scan(ScanRequest{
			Filters: []logical.Expr{logical.Eq(logical.Col("name"), logical.Lit("n"))},
			Limit:   -1, Partitions: 1,
		})
		if err != nil {
			return err
		}
		s, err := res.Open(0)
		if err != nil {
			return err
		}
		defer s.Close()
		for {
			if _, err := s.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}()
	if err == nil || !strings.Contains(err.Error(), "malformed GPQ file") {
		t.Fatalf("filtered scan ended with %v, want the format error", err)
	}
}
