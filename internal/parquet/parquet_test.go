package parquet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func testSchema() *arrow.Schema {
	return arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, true),
		arrow.NewField("score", arrow.Float64, true),
		arrow.NewField("flag", arrow.Boolean, true),
		arrow.NewField("day", arrow.Date32, true),
	)
}

// makeBatch builds rows [start, start+n) with deterministic contents:
// id = i, name = "name-<i%97>" (every 13th null), score = i/2 (every 7th
// null), flag = i%2, day = i%1000.
func makeBatch(start, n int) *arrow.RecordBatch {
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	bb := arrow.NewBoolBuilder()
	db := arrow.NewNumericBuilder[int32](arrow.Date32)
	for i := start; i < start+n; i++ {
		ib.Append(int64(i))
		if i%13 == 0 {
			sb.AppendNull()
		} else {
			sb.Append(fmt.Sprintf("name-%02d", i%97))
		}
		if i%7 == 0 {
			fb.AppendNull()
		} else {
			fb.Append(float64(i) / 2)
		}
		bb.Append(i%2 == 0)
		db.Append(int32(i % 1000))
	}
	return arrow.NewRecordBatch(testSchema(), []arrow.Array{
		ib.Finish(), sb.Finish(), fb.Finish(), bb.Finish(), db.Finish(),
	})
}

func writeTestFile(t testing.TB, path string, numRows int, opts WriterOptions) {
	t.Helper()
	var batches []*arrow.RecordBatch
	for start := 0; start < numRows; start += 1000 {
		n := 1000
		if start+n > numRows {
			n = numRows - start
		}
		batches = append(batches, makeBatch(start, n))
	}
	if err := WriteFile(path, testSchema(), batches, opts); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, sc *Scanner) *arrow.RecordBatch {
	t.Helper()
	var batches []*arrow.RecordBatch
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	out, err := compute.ConcatBatches(sc.Schema(), batches)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	opts := WriterOptions{RowGroupRows: 3000, PageRows: 500}
	writeTestFile(t, path, 10000, opts)

	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.NumRows() != 10000 {
		t.Fatalf("rows = %d", fr.NumRows())
	}
	if fr.Metadata().NumRowGroups() != 4 {
		t.Fatalf("row groups = %d", fr.Metadata().NumRowGroups())
	}
	if !fr.Schema().Equal(testSchema()) {
		t.Fatal("schema mismatch")
	}
	sc, err := fr.Scan(ScanOptions{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	want, err := compute.ConcatBatches(testSchema(), []*arrow.RecordBatch{makeBatch(0, 10000)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: got %d want %d", got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		for r := 0; r < want.NumRows(); r += 37 {
			g, w := got.Column(c).GetScalar(r), want.Column(c).GetScalar(r)
			if !g.Equal(w) {
				t.Fatalf("col %d row %d: got %v want %v", c, r, g, w)
			}
		}
	}
}

func TestProjectionPushdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 2000, DefaultWriterOptions())
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(ScanOptions{Projection: []int{2, 0}, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	if got.NumCols() != 2 || got.Schema().Field(0).Name != "score" || got.Schema().Field(1).Name != "id" {
		t.Fatalf("projection wrong: %s", got.Schema())
	}
	if got.Column(1).(*arrow.Int64Array).Value(100) != 100 {
		t.Fatal("projected values wrong")
	}
}

func TestLimitPushdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 5000, WriterOptions{RowGroupRows: 1000})
	fr, _ := OpenFile(path)
	defer fr.Close()
	sc, err := fr.Scan(ScanOptions{Limit: 1500, Projection: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	if got.NumRows() != 1500 {
		t.Fatalf("limit: got %d rows", got.NumRows())
	}
	// Limit must stop reading row groups early.
	if sc.RowGroupsMatched > 2 {
		t.Fatalf("limit read %d row groups", sc.RowGroupsMatched)
	}
}

// cmpPredicate implements Predicate for a single `col <op> literal` atom.
type cmpPredicate struct {
	col int
	op  compute.CmpOp
	lit arrow.Scalar
}

func (p *cmpPredicate) Columns() []int { return []int{p.col} }

func (p *cmpPredicate) Evaluate(cols map[int]arrow.Array, numRows int) (*arrow.BoolArray, error) {
	return compute.CompareScalar(p.op, cols[p.col], p.lit, nil)
}

func (p *cmpPredicate) KeepColumnStats(col int, stats ColumnStats) bool {
	return StatsKeepCompare(p.op.String(), stats, p.lit)
}

func (p *cmpPredicate) EqProbes() []EqProbe {
	if p.op == compute.Eq {
		return []EqProbe{{Col: p.col, Value: p.lit}}
	}
	return nil
}

func TestPredicatePushdownPrunesRowGroups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	// ids are monotonically increasing, so row-group stats are disjoint.
	writeTestFile(t, path, 10000, WriterOptions{RowGroupRows: 1000, PageRows: 100})
	fr, _ := OpenFile(path)
	defer fr.Close()
	pred := &cmpPredicate{col: 0, op: compute.Gt, lit: arrow.Int64Scalar(8999)}
	sc, err := fr.Scan(ScanOptions{Predicate: pred, Projection: []int{0, 1}, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	if got.NumRows() != 1000 {
		t.Fatalf("got %d rows", got.NumRows())
	}
	if sc.RowGroupsPruned != 9 || sc.RowGroupsMatched != 1 {
		t.Fatalf("pruned=%d matched=%d", sc.RowGroupsPruned, sc.RowGroupsMatched)
	}
	// Verify values actually satisfy the predicate.
	ids := got.Column(0).(*arrow.Int64Array)
	for i := 0; i < ids.Len(); i++ {
		if ids.Value(i) <= 8999 {
			t.Fatal("predicate violated")
		}
	}
}

func TestPagePruningAndLateMaterialization(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 10000, WriterOptions{RowGroupRows: 10000, PageRows: 100})
	fr, _ := OpenFile(path)
	defer fr.Close()
	pred := &cmpPredicate{col: 0, op: compute.Eq, lit: arrow.Int64Scalar(5555)}
	sc, err := fr.Scan(ScanOptions{Predicate: pred, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	if got.NumRows() != 1 {
		t.Fatalf("got %d rows", got.NumRows())
	}
	if got.Column(1).(*arrow.StringArray).Value(0) != fmt.Sprintf("name-%02d", 5555%97) {
		t.Fatal("late materialized value wrong")
	}
	// 100 pages exist; all but one should be skipped by page stats.
	if sc.PagesSkipped < 90 {
		t.Fatalf("pages skipped = %d", sc.PagesSkipped)
	}
}

func TestBloomFilterPrunesImpossibleEquality(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 5000, DefaultWriterOptions())
	fr, _ := OpenFile(path)
	defer fr.Close()
	// "zzz" is not a value of name; min/max alone cannot prove absence
	// ... actually it can, so probe a value inside the min/max range.
	pred := &cmpPredicate{col: 1, op: compute.Eq, lit: arrow.StringScalar("name-0x")}
	sc, err := fr.Scan(ScanOptions{Predicate: pred, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	if got.NumRows() != 0 {
		t.Fatal("no rows should match")
	}
	if sc.RowGroupsPruned == 0 {
		t.Fatal("bloom filter should have pruned the row group")
	}
}

// drain runs a scan of fr to its end and returns the rows it produced and
// the error that ended it, nil at the end of the scan.
func drain(fr *FileReader, opts ScanOptions) (int, error) {
	sc, err := fr.Scan(opts)
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	rows := 0
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows += b.NumRows()
	}
}

// TestHostileFooterEntryIsAFormatError hand-edits the Bloom filter, page
// and statistics entries of a footer: a length or count the writer never
// makes, no hash functions, bytes outside the data section, or a min or
// max of another kind than the column's. Opened through NewReader and
// through OpenFile, the file must fail to open or an equality scan with
// pruning on must end in the format error, never in a panic or a result.
// The scanned value is in the file, so a Bloom filter does not stop the
// scan before it reads the pages.
func TestHostileFooterEntryIsAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 5000, DefaultWriterOptions())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataEnd := int64(len(data)) - 8 - int64(binary.LittleEndian.Uint32(data[len(data)-8:]))
	pred := &cmpPredicate{col: 1, op: compute.Eq, lit: arrow.StringScalar("name-05")}

	type edit func(c *columnChunkMeta)
	cases := map[string]edit{
		"bloom/len-over-cap":    func(c *columnChunkMeta) { c.Bloom.Len = maxBloomBytes + 1 },
		"bloom/no-hashes":       func(c *columnChunkMeta) { c.Bloom.NumHashes = 0 },
		"bloom/negative-hashes": func(c *columnChunkMeta) { c.Bloom.NumHashes = -3 },
		"page/rows-negative":    func(c *columnChunkMeta) { c.Pages[0].NumRows = -1 },
	}
	// Min/max of a string column must set exactly its S field, and a null
	// count lie in [0, rows], in the chunk's statistics and in a page's.
	one, s := int64(1), "name-05"
	stats := map[string]func(m *statsMeta){
		"int-min":        func(m *statsMeta) { m.Min = &statsValue{I: &one} },
		"int-max":        func(m *statsMeta) { m.Max = &statsValue{I: &one} },
		"two-fields":     func(m *statsMeta) { m.Min = &statsValue{S: &s, I: &one} },
		"no-field":       func(m *statsMeta) { m.Max = &statsValue{} },
		"nulls-negative": func(m *statsMeta) { m.NullCount = -1 },
		"nulls-over":     func(m *statsMeta) { m.NullCount = m.NumRows + 1 },
		"rows-lie":       func(m *statsMeta) { m.NumRows++ },
	}
	for name, st := range stats {
		cases["stats/"+name] = func(c *columnChunkMeta) { st(&c.Stats) }
		cases["page-stats/"+name] = func(c *columnChunkMeta) { st(&c.Pages[0].Stats) }
	}
	// Every entry's bytes must be non-empty and inside the data section.
	spans := map[string]func(off, n *int64){
		"len-zero":         func(off, n *int64) { *n = 0 },
		"len-negative":     func(off, n *int64) { *n = -5 },
		"offset-negative":  func(off, n *int64) { *off = -1 },
		"offset-in-magic":  func(off, n *int64) { *off = 0 },
		"runs-into-footer": func(off, n *int64) { *off = dataEnd - *n + 1 },
		"offset-past-file": func(off, n *int64) { *off = 1 << 40 },
		"offset-overflows": func(off, n *int64) { *off = math.MaxInt64 },
	}
	for name, span := range spans {
		cases["bloom/"+name] = func(c *columnChunkMeta) { span(&c.Bloom.Offset, &c.Bloom.Len) }
		cases["page/"+name] = func(c *columnChunkMeta) { span(&c.Pages[0].Offset, &c.Pages[0].Len) }
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			edited := rewriteFooter(t, path, func(ft *fileFooter) {
				for _, g := range ft.RowGroups {
					if c := &g.Columns[pred.col]; c.Bloom == nil {
						t.Fatalf("column %d has no Bloom filter", pred.col)
					} else {
						tc(c)
					}
				}
			})
			file, err := os.ReadFile(edited)
			if err != nil {
				t.Fatal(err)
			}
			opens := map[string]func() (*FileReader, error){
				"NewReader": func() (*FileReader, error) { return NewReader(bytes.NewReader(file), int64(len(file))) },
				"OpenFile":  func() (*FileReader, error) { return OpenFile(edited) },
			}
			for how, open := range opens {
				fr, err := open()
				rows := 0
				if err == nil {
					rows, err = drain(fr, ScanOptions{Predicate: pred, Limit: -1})
					fr.Close()
				}
				if !errors.Is(err, errFormat) {
					t.Errorf("%s: %d rows, error %v, want the format error", how, rows, err)
				}
			}
		})
	}
}

// truncatedSource serves a file as if it had been cut at cut after its
// footer was read: the footer (from end, where the data section ends) and
// the bytes before cut read, and a read that reaches past cut returns what
// lies before it and err.
type truncatedSource struct {
	data     []byte
	cut, end int64
	err      error
}

func (s truncatedSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= s.end || off+int64(len(p)) <= s.cut {
		return copy(p, s.data[off:]), nil
	}
	n := 0
	if off < s.cut {
		n = copy(p, s.data[off:s.cut])
	}
	return n, s.err
}

// TestShortReadIsAFormatError: a source that ends inside the data section
// after the footer was read fails the scan with the format error; the
// scanner must not take the source's io.EOF for the end of the scan. The
// file on disk is read through the io.ReaderAt path with mmap off.
func TestShortReadIsAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 5000, DefaultWriterOptions())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataEnd := int64(len(data)) - 8 - int64(binary.LittleEndian.Uint32(data[len(data)-8:]))
	cut := dataEnd / 2
	pred := &cmpPredicate{col: 1, op: compute.Eq, lit: arrow.StringScalar("name-05")}
	for _, srcErr := range []error{io.EOF, io.ErrUnexpectedEOF} {
		src := truncatedSource{data: data, cut: cut, end: dataEnd, err: srcErr}
		fr, err := NewReader(src, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []ScanOptions{{Limit: -1}, {Predicate: pred, Limit: -1}} {
			if rows, err := drain(fr, opts); !errors.Is(err, errFormat) {
				t.Errorf("source error %v, predicate %v: %d rows, error %v, want the format error",
					srcErr, opts.Predicate != nil, rows, err)
			}
		}
	}

	t.Setenv("GOFUSION_NO_MMAP", "1")
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if rows, err := drain(fr, ScanOptions{Limit: -1}); !errors.Is(err, errFormat) {
		t.Errorf("truncated file: %d rows, error %v, want the format error", rows, err)
	}
}

func TestPredicateResultsMatchPostFilter(t *testing.T) {
	// Property-style check: pushdown scan == full scan + filter, across
	// several operators and both ablation modes.
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 8000, WriterOptions{RowGroupRows: 1500, PageRows: 200})
	fr, _ := OpenFile(path)
	defer fr.Close()

	full := func() *arrow.RecordBatch {
		sc, err := fr.Scan(ScanOptions{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		return scanAll(t, sc)
	}()

	rng := rand.New(rand.NewSource(7))
	ops := []compute.CmpOp{compute.Eq, compute.Neq, compute.Lt, compute.LtEq, compute.Gt, compute.GtEq}
	for trial := 0; trial < 20; trial++ {
		var pred *cmpPredicate
		switch trial % 3 {
		case 0:
			pred = &cmpPredicate{col: 0, op: ops[rng.Intn(len(ops))], lit: arrow.Int64Scalar(rng.Int63n(9000))}
		case 1:
			pred = &cmpPredicate{col: 1, op: ops[rng.Intn(len(ops))], lit: arrow.StringScalar(fmt.Sprintf("name-%02d", rng.Intn(99)))}
		case 2:
			pred = &cmpPredicate{col: 2, op: ops[rng.Intn(len(ops))], lit: arrow.Float64Scalar(float64(rng.Intn(4000)))}
		}
		for _, ablate := range []ScanOptions{
			{Predicate: pred, Limit: -1},
			{Predicate: pred, Limit: -1, DisablePruning: true},
			{Predicate: pred, Limit: -1, DisableLateMaterialization: true},
		} {
			sc, err := fr.Scan(ablate)
			if err != nil {
				t.Fatal(err)
			}
			got := scanAll(t, sc)
			// Reference: evaluate on the full batch.
			mask, err := compute.CompareScalar(pred.op, full.Column(pred.col), pred.lit, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := compute.FilterBatch(full, mask)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumRows() != want.NumRows() {
				t.Fatalf("trial %d opts %+v: got %d rows want %d", trial, ablate, got.NumRows(), want.NumRows())
			}
			for r := 0; r < got.NumRows(); r += 101 {
				for c := 0; c < got.NumCols(); c++ {
					if !got.Column(c).GetScalar(r).Equal(want.Column(c).GetScalar(r)) {
						t.Fatalf("trial %d row %d col %d mismatch", trial, r, c)
					}
				}
			}
		}
	}
}

func TestChunkAndFileStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 3000, WriterOptions{RowGroupRows: 1000})
	fr, _ := OpenFile(path)
	defer fr.Close()
	cs := fr.Metadata().ColumnChunkStats(1, 0) // second row group, id column
	if !cs.HasMinMax || cs.Min.AsInt64() != 1000 || cs.Max.AsInt64() != 1999 {
		t.Fatalf("chunk stats wrong: %+v", cs)
	}
	fileStats := fr.Metadata().ColumnStatsForFile(0)
	if fileStats.Min.AsInt64() != 0 || fileStats.Max.AsInt64() != 2999 || fileStats.NumRows != 3000 {
		t.Fatalf("file stats wrong: %+v", fileStats)
	}
	nameStats := fr.Metadata().ColumnStatsForFile(1)
	if nameStats.NullCount == 0 {
		t.Fatal("null count missing")
	}
}

func TestCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	// Truncated file.
	bad := filepath.Join(dir, "bad.gpq")
	if err := os.WriteFile(bad, []byte("GP"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("truncated file must fail")
	}
	// Wrong magic.
	bad2 := filepath.Join(dir, "bad2.gpq")
	if err := os.WriteFile(bad2, bytes.Repeat([]byte("x"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad2); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Valid header, corrupt footer length.
	good := filepath.Join(dir, "good.gpq")
	writeTestFile(t, good, 100, WriterOptions{})
	data, _ := os.ReadFile(good)
	data[len(data)-8] = 0xFF
	data[len(data)-7] = 0xFF
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(good); err == nil {
		t.Fatal("corrupt footer must fail")
	}
}

func TestStatsKeepCompare(t *testing.T) {
	stats := ColumnStats{
		Min: arrow.Int64Scalar(10), Max: arrow.Int64Scalar(20),
		HasMinMax: true, NumRows: 100,
	}
	cases := []struct {
		op   string
		lit  int64
		keep bool
	}{
		{"=", 15, true}, {"=", 5, false}, {"=", 25, false}, {"=", 10, true}, {"=", 20, true},
		{"<", 10, false}, {"<", 11, true},
		{"<=", 9, false}, {"<=", 10, true},
		{">", 20, false}, {">", 19, true},
		{">=", 21, false}, {">=", 20, true},
		{"!=", 15, true},
	}
	for _, c := range cases {
		if got := StatsKeepCompare(c.op, stats, arrow.Int64Scalar(c.lit)); got != c.keep {
			t.Fatalf("%s %d: got %v want %v", c.op, c.lit, got, c.keep)
		}
	}
	// != prunes only constant chunks.
	constStats := ColumnStats{Min: arrow.Int64Scalar(5), Max: arrow.Int64Scalar(5), HasMinMax: true}
	if StatsKeepCompare("!=", constStats, arrow.Int64Scalar(5)) {
		t.Fatal("!= on constant chunk should prune")
	}
	// Missing stats always keep.
	if !StatsKeepCompare("=", ColumnStats{}, arrow.Int64Scalar(1)) {
		t.Fatal("missing stats must keep")
	}
}

func TestBloomFilterBasics(t *testing.T) {
	bf := newBloomFilter(1000)
	vals := arrow.NewStringFromSlice([]string{"a", "b", "c"})
	bf.insertArray(vals)
	for _, v := range []string{"a", "b", "c"} {
		if !bf.MightContain(arrow.StringScalar(v)) {
			t.Fatalf("false negative for %q", v)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if bf.MightContain(arrow.StringScalar(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if fp > 100 {
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
	// Nulls are never "contained" decisively.
	if !bf.MightContain(arrow.NullScalar(arrow.String)) {
		t.Fatal("null probe must fail open")
	}
}

func TestWriterRejectsSchemaMismatch(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf, testSchema(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	err = fw.Write(arrow.NewRecordBatch(other, []arrow.Array{arrow.NewInt64([]int64{1})}))
	if err == nil {
		t.Fatal("schema mismatch must fail")
	}
}

func TestKVMetadata(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	opts := DefaultWriterOptions()
	opts.KV = map[string]string{"sort_order": "id ASC"}
	writeTestFile(t, path, 100, opts)
	fr, _ := OpenFile(path)
	defer fr.Close()
	if fr.Metadata().KV["sort_order"] != "id ASC" {
		t.Fatal("kv metadata lost")
	}
}
