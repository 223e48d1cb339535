package parquet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func gridSchema() *arrow.Schema {
	return arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, true),
		arrow.NewField("s", arrow.String, true),
		arrow.NewField("b", arrow.Boolean, true),
		arrow.NewField("d", arrow.Date32, true),
	)
}

// gridBatch builds n rows: id = row index, and nullable int, string (20
// distinct values), bool and date columns with nulls at different
// strides.
func gridBatch(n int) *arrow.RecordBatch {
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	vb := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	bb := arrow.NewBoolBuilder()
	db := arrow.NewNumericBuilder[int32](arrow.Date32)
	for i := 0; i < n; i++ {
		ib.Append(int64(i))
		if i%5 == 0 {
			vb.AppendNull()
		} else {
			vb.Append(int64(i * 7))
		}
		if i%7 == 0 {
			sb.AppendNull()
		} else {
			sb.Append(fmt.Sprintf("s-%02d", i%20))
		}
		if i%3 == 0 {
			bb.AppendNull()
		} else {
			bb.Append(i%4 == 1)
		}
		if i%11 == 0 {
			db.AppendNull()
		} else {
			db.Append(int32(10000 + i%365))
		}
	}
	return arrow.NewRecordBatch(gridSchema(), []arrow.Array{ib.Finish(), vb.Finish(), sb.Finish(), bb.Finish(), db.Finish()})
}

// idPredicate selects rows by their id (column 0). A NULL result drops the
// row like false. With prune set, page and chunk statistics refute pages
// whose id range holds no selected row; otherwise every page is evaluated.
type idPredicate struct {
	keep  func(id int64) (selected, null bool)
	prune func(lo, hi int64) bool
}

func (p *idPredicate) Columns() []int { return []int{0} }

// Evaluate leaves the bits past numRows set in both bitmaps, as bytewise
// kernels such as NOT do; the scan must not read them as rows.
func (p *idPredicate) Evaluate(cols map[int]arrow.Array, numRows int) (*arrow.BoolArray, error) {
	ids := cols[0].(*arrow.Int64Array)
	vals, valid := arrow.NewBitmap(numRows), arrow.NewBitmap(numRows)
	for i := range vals {
		vals[i], valid[i] = 0xFF, 0xFF
	}
	for i := 0; i < numRows; i++ {
		sel, null := p.keep(ids.Value(i))
		if !sel {
			vals.Clear(i)
		}
		if null {
			valid.Clear(i)
		}
	}
	return arrow.NewBool(vals, valid, numRows), nil
}

func (p *idPredicate) KeepColumnStats(_ int, st ColumnStats) bool {
	if p.prune == nil || !st.HasMinMax {
		return true
	}
	return p.prune(st.Min.AsInt64(), st.Max.AsInt64())
}

func (p *idPredicate) EqProbes() []EqProbe { return nil }

func gridPredicates(rows int) []struct {
	name string
	pred *idPredicate
} {
	rng := rand.New(rand.NewSource(3))
	coin := make([]byte, rows)
	for i := range coin {
		coin[i] = byte(rng.Intn(4)) // 0, 1: selected; 2: false; 3: NULL over a set bit
	}
	const one = 1234 % 1000
	return []struct {
		name string
		pred *idPredicate
	}{
		{"none", nil},
		{"zero-rows", &idPredicate{keep: func(int64) (bool, bool) { return false, false }}},
		{"one-row", &idPredicate{
			keep:  func(id int64) (bool, bool) { return id == one, false },
			prune: func(lo, hi int64) bool { return lo <= one && one <= hi },
		}},
		{"alternating", &idPredicate{keep: func(id int64) (bool, bool) { return id%2 == 0, false }}},
		{"random-half", &idPredicate{keep: func(id int64) (bool, bool) { return coin[id] != 2, coin[id] == 3 }}},
		{"all-rows", &idPredicate{keep: func(int64) (bool, bool) { return true, false }}},
	}
}

// readBatches drains a scanner.
func readBatches(t *testing.T, sc *Scanner) []*arrow.RecordBatch {
	t.Helper()
	defer sc.Close()
	var out []*arrow.RecordBatch
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

// sameValues reports whether got and want hold the same rows, nulls
// included.
func sameValues(got, want arrow.Array) bool {
	if got.Len() != want.Len() || got.NullCount() != want.NullCount() {
		return false
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			return false
		}
		if want.IsNull(i) {
			continue
		}
		switch w := want.(type) {
		case *arrow.Int64Array:
			if got.(*arrow.Int64Array).Value(i) != w.Value(i) {
				return false
			}
		case *arrow.Int32Array:
			if got.(*arrow.Int32Array).Value(i) != w.Value(i) {
				return false
			}
		case *arrow.StringArray:
			if got.(*arrow.StringArray).Value(i) != w.Value(i) {
				return false
			}
		case *arrow.BoolArray:
			if got.(*arrow.BoolArray).Value(i) != w.Value(i) {
				return false
			}
		default:
			panic(fmt.Sprintf("sameValues: unexpected %T", want))
		}
	}
	return true
}

// TestScanDifferentialGrid checks the stripe scan against a filter over a
// full unfiltered read across page sizes, batch sizes, selectivities,
// limits, projections and the page cache. Every batch but a row group's
// last must hold exactly BatchRows rows.
func TestScanDifferentialGrid(t *testing.T) {
	for _, pageRows := range []int{64, 100, 8192} {
		// Row groups of several pages with a short last page, and a short
		// last row group.
		rows, groupRows := 1000, 450
		if pageRows == 8192 {
			rows, groupRows = 17000, 16500
		}
		path := filepath.Join(t.TempDir(), "grid.gpq")
		opts := WriterOptions{RowGroupRows: groupRows, PageRows: pageRows}
		if err := WriteFile(path, gridSchema(), []*arrow.RecordBatch{gridBatch(rows)}, opts); err != nil {
			t.Fatal(err)
		}
		fr, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		full := scanAll(t, mustScan(t, fr, ScanOptions{Limit: -1}))
		if !sameValues(full.Column(2), gridBatch(rows).Column(2)) {
			t.Fatal("full read does not round-trip")
		}
		for _, cached := range []bool{false, true} {
			var cache *PageCache
			if cached {
				cache = NewPageCache(64<<20, nil)
			}
			for _, sel := range gridPredicates(rows) {
				checkGridSelection(t, fr, full, cache, sel.pred, fmt.Sprintf("page=%d cache=%v sel=%s", pageRows, cached, sel.name))
			}
			if cache != nil {
				cache.Close()
			}
		}
		fr.Close()
	}
}

func mustScan(t *testing.T, fr *FileReader, opts ScanOptions) *Scanner {
	t.Helper()
	sc, err := fr.Scan(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// checkGridSelection runs one selection over every batch size, limit and
// projection.
func checkGridSelection(t *testing.T, fr *FileReader, full *arrow.RecordBatch, cache *PageCache, pred *idPredicate, name string) {
	t.Helper()
	mask := arrow.NewBool(arrow.NewBitmapSet(full.NumRows()), nil, full.NumRows())
	if pred != nil {
		var err error
		if mask, err = pred.Evaluate(map[int]arrow.Array{0: full.Column(0)}, full.NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	selected, err := compute.FilterBatch(full, mask)
	if err != nil {
		t.Fatal(err)
	}
	// Rows each row group contributes before any limit.
	meta := fr.Metadata()
	perGroup := make([]int, meta.NumRowGroups())
	for rg, first := 0, 0; rg < meta.NumRowGroups(); rg++ {
		n := int(meta.RowGroupRows(rg))
		perGroup[rg] = mask.Slice(first, n).(*arrow.BoolArray).TrueCount()
		first += n
	}
	var scanPred Predicate // a nil *idPredicate must stay a nil interface
	if pred != nil {
		scanPred = pred
	}
	for _, batchRows := range []int{1, 64, 100, 8192, 10000} {
		for _, limit := range []int64{-1, 0, 1, 150} {
			for _, proj := range [][]int{nil, {}} {
				desc := fmt.Sprintf("%s batch=%d limit=%d proj=%v", name, batchRows, limit, proj)
				want := selected
				if limit > 0 && int64(want.NumRows()) > limit {
					want = want.Slice(0, int(limit))
				}
				var sizes []int
				left := int64(want.NumRows())
				for _, n := range perGroup {
					n := int(min(int64(n), left))
					left -= int64(n)
					for ; n >= batchRows; n -= batchRows {
						sizes = append(sizes, batchRows)
					}
					if n > 0 {
						sizes = append(sizes, n)
					}
				}
				sc := mustScan(t, fr, ScanOptions{Projection: proj, Predicate: scanPred, Limit: limit, BatchRows: batchRows, Cache: cache})
				batches := readBatches(t, sc)
				if len(batches) != len(sizes) {
					t.Fatalf("%s: %d batches, want %d", desc, len(batches), len(sizes))
				}
				off := 0
				for i, b := range batches {
					if b.NumRows() != sizes[i] {
						t.Fatalf("%s: batch %d has %d rows, want %d", desc, i, b.NumRows(), sizes[i])
					}
					for c := 0; c < b.NumCols(); c++ {
						if !sameValues(b.Column(c), want.Column(c).Slice(off, b.NumRows())) {
							t.Fatalf("%s: batch %d column %d differs from the filtered full read", desc, i, c)
						}
					}
					off += b.NumRows()
				}
				if sc.RowsZeroCopy+sc.RowsGathered != off {
					t.Fatalf("%s: rows_zero_copy=%d + rows_gathered=%d, emitted %d", desc, sc.RowsZeroCopy, sc.RowsGathered, off)
				}
			}
		}
	}
}

// TestFullySelectedPageIsTheCachedArray pins the zero-copy path: with
// batches the size of a page and nothing filtered, every batch column is
// the page cache's own array.
func TestFullySelectedPageIsTheCachedArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	if err := WriteFile(path, gridSchema(), []*arrow.RecordBatch{gridBatch(1000)},
		WriterOptions{RowGroupRows: 500, PageRows: 100}); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	cache := NewPageCache(64<<20, nil)
	defer cache.Close()
	pred := &idPredicate{keep: func(int64) (bool, bool) { return true, false }}
	sc := mustScan(t, fr, ScanOptions{Predicate: pred, Limit: -1, BatchRows: 100, Cache: cache})
	batches := readBatches(t, sc)
	if len(batches) != 10 || sc.RowsZeroCopy != 1000 || sc.RowsGathered != 0 {
		t.Fatalf("%d batches, rows_zero_copy=%d rows_gathered=%d; want 10, 1000, 0", len(batches), sc.RowsZeroCopy, sc.RowsGathered)
	}
	for i, b := range batches {
		for col := 0; col < b.NumCols(); col++ {
			key := PageKey{File: fr.Fingerprint(), RowGroup: i / 5, Col: col, Page: i % 5}
			page, hit, err := cache.CachedPage(key, func() (arrow.Array, error) {
				return nil, errors.New("page not resident")
			})
			if err != nil || !hit {
				t.Fatalf("batch %d column %d: page not cached: %v", i, col, err)
			}
			if b.Column(col) != page {
				t.Fatalf("batch %d column %d is a copy, not the cached page", i, col)
			}
		}
	}
}

// rewriteFooter writes a copy of the file at src whose footer edit has
// changed.
func rewriteFooter(t testing.TB, src string, edit func(*fileFooter)) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	dataEnd := len(data) - 8 - footerLen
	var footer fileFooter
	if err := json.Unmarshal(data[dataEnd:len(data)-8], &footer); err != nil {
		t.Fatal(err)
	}
	edit(&footer)
	footerJSON, err := json.Marshal(&footer)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), data[:dataEnd]...), footerJSON...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footerJSON)))
	out = append(out, Magic...)
	path := filepath.Join(t.TempDir(), "edited.gpq")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMisalignedPagesAreAFormatError hand-edits footers so that column
// chunks disagree on their page cuts, pages stop tiling the row group, or
// a row count lies: opened through NewReader and through OpenFile, the
// file is a format error, whatever a scan would need of it. Among them is
// a row group claiming 1<<24 rows over pages of 300, which a count(*)
// scan (no columns) would otherwise return.
func TestMisalignedPagesAreAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	if err := WriteFile(path, gridSchema(), []*arrow.RecordBatch{gridBatch(600)},
		WriterOptions{RowGroupRows: 300, PageRows: 100}); err != nil {
		t.Fatal(err)
	}
	allCols := func(f func(c *columnChunkMeta)) func(*fileFooter) {
		return func(ft *fileFooter) {
			for i := range ft.RowGroups[1].Columns {
				f(&ft.RowGroups[1].Columns[i])
			}
		}
	}
	for name, edit := range map[string]func(*fileFooter){
		"chunks-disagree": func(ft *fileFooter) {
			p := ft.RowGroups[1].Columns[2].Pages
			p[0].NumRows -= 10
			p[1].FirstRow -= 10
			p[1].NumRows += 10
		},
		"chunk-fewer-pages": func(ft *fileFooter) { ft.RowGroups[1].Columns[3].Pages = ft.RowGroups[1].Columns[3].Pages[:2] },
		"gap":               allCols(func(c *columnChunkMeta) { c.Pages[1].FirstRow++ }),
		"overlap":           allCols(func(c *columnChunkMeta) { c.Pages[1].FirstRow-- }),
		"short":             allCols(func(c *columnChunkMeta) { c.Pages = c.Pages[:2] }),
		"empty-page": allCols(func(c *columnChunkMeta) {
			c.Pages = append(c.Pages, pageMeta{FirstRow: 300, Offset: c.Pages[0].Offset, Len: c.Pages[0].Len})
		}),
		"group-overclaims": func(ft *fileFooter) {
			ft.RowGroups[1].NumRows = 1 << 24
			ft.NumRows = 300 + 1<<24
		},
		"count-star": func(ft *fileFooter) { ft.RowGroups[1].NumRows = 1 << 24 },
		"group-negative": func(ft *fileFooter) {
			ft.RowGroups[1].NumRows = -300
			ft.NumRows = 0
		},
		"footer-rows": func(ft *fileFooter) { ft.NumRows-- },
	} {
		edited := rewriteFooter(t, path, edit)
		file, err := os.ReadFile(edited)
		if err != nil {
			t.Fatal(err)
		}
		for how, open := range map[string]func() (*FileReader, error){
			"NewReader": func() (*FileReader, error) { return NewReader(bytes.NewReader(file), int64(len(file))) },
			"OpenFile":  func() (*FileReader, error) { return OpenFile(edited) },
		} {
			fr, err := open()
			if err == nil {
				rows, err := drain(fr, ScanOptions{Projection: []int{}})
				fr.Close()
				t.Fatalf("%s %s: opened; a count(*) scan returned %d rows, error %v", name, how, rows, err)
			}
			if !errors.Is(err, errFormat) {
				t.Fatalf("%s %s: %v, want the format error", name, how, err)
			}
		}
	}
}

// TestFooterChunkCountIsAFormatError hand-edits footers so that a row
// group holds fewer or more column chunks than the schema has fields: the
// file does not open.
func TestFooterChunkCountIsAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	if err := WriteFile(path, gridSchema(), []*arrow.RecordBatch{gridBatch(600)},
		WriterOptions{RowGroupRows: 300, PageRows: 100}); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*fileFooter){
		"rg0-one-chunk":    func(ft *fileFooter) { ft.RowGroups[0].Columns = ft.RowGroups[0].Columns[:1] },
		"rg1-missing-last": func(ft *fileFooter) { ft.RowGroups[1].Columns = ft.RowGroups[1].Columns[:4] },
		"rg0-extra-chunk": func(ft *fileFooter) {
			ft.RowGroups[0].Columns = append(ft.RowGroups[0].Columns, ft.RowGroups[0].Columns[0])
		},
	} {
		if fr, err := OpenFile(rewriteFooter(t, path, edit)); !errors.Is(err, errFormat) {
			if err == nil {
				fr.Close()
			}
			t.Fatalf("%s: open returned %v, want the format error", name, err)
		}
	}
}
