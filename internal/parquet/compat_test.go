package parquet

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// testdata/v1_flate.gpq was written by the last version 1 writer (plain
// and dict pages under flate, RowGroupRows 150, PageRows 64) from
// goldenBatch(0, 300). It pins that version 1 files stay readable.
const goldenPath = "testdata/v1_flate.gpq"

func goldenSchema() *arrow.Schema {
	return arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, true),
		arrow.NewField("score", arrow.Float64, true),
		arrow.NewField("flag", arrow.Boolean, true),
		arrow.NewField("day", arrow.Date32, true),
		arrow.NewField("uniq", arrow.String, false),
		arrow.NewField("small", arrow.Int16, true),
		arrow.NewField("ts", arrow.Timestamp, false),
	)
}

func goldenBatch(start, n int) *arrow.RecordBatch {
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	bb := arrow.NewBoolBuilder()
	db := arrow.NewNumericBuilder[int32](arrow.Date32)
	ub := arrow.NewStringBuilder(arrow.String)
	hb := arrow.NewNumericBuilder[int16](arrow.Int16)
	tb := arrow.NewNumericBuilder[int64](arrow.Timestamp)
	for i := start; i < start+n; i++ {
		ib.Append(int64(i) * 3)
		if i%13 == 0 {
			sb.AppendNull()
		} else {
			sb.Append(fmt.Sprintf("name-%02d", i%17))
		}
		if i%7 == 0 {
			fb.AppendNull()
		} else {
			fb.Append(float64(i) / 2)
		}
		if i%11 == 0 {
			bb.AppendNull()
		} else {
			bb.Append(i%2 == 0)
		}
		db.Append(int32(15000 + i%40))
		ub.Append(fmt.Sprintf("http://example.com/page/%d", i*7919%100003))
		if i%5 == 0 {
			hb.AppendNull()
		} else {
			hb.Append(int16(i%300 - 150))
		}
		tb.Append(1372636800000000 + int64(i)*1000000)
	}
	return arrow.NewRecordBatch(goldenSchema(), []arrow.Array{
		ib.Finish(), sb.Finish(), fb.Finish(), bb.Finish(), db.Finish(), ub.Finish(), hb.Finish(), tb.Finish(),
	})
}

func assertScansTo(t *testing.T, path string, want *arrow.RecordBatch) {
	t.Helper()
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(ScanOptions{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, sc)
	if got.NumRows() != want.NumRows() {
		t.Fatalf("scanned %d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		assertArraysEqual(t, want.Column(c), got.Column(c))
	}
}

// codecsByRowGroup returns, per row group, the set of page codecs used.
func codecsByRowGroup(meta *FileMetadata) []map[string]bool {
	out := make([]map[string]bool, meta.NumRowGroups())
	for rg := range out {
		out[rg] = map[string]bool{}
		for col := 0; col < meta.Schema.NumFields(); col++ {
			for _, p := range meta.ColumnChunkPages(rg, col) {
				out[rg][p.Codec] = true
			}
		}
	}
	return out
}

func TestV1GoldenFileStillScans(t *testing.T) {
	fr, err := OpenFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	meta := fr.Metadata()
	if meta.footer.Version != 1 || meta.NumRowGroups() != 2 {
		t.Fatalf("golden file is version %d with %d row groups, want version 1 with 2", meta.footer.Version, meta.NumRowGroups())
	}
	for rg, codecs := range codecsByRowGroup(meta) {
		if !codecs[CodecFlate] || codecs[CodecLZ] {
			t.Fatalf("row group %d codecs %v: the golden file must be flate", rg, codecs)
		}
	}
	fr.Close()
	assertScansTo(t, goldenPath, goldenBatch(0, 300))

	// A predicate scan goes through page selection and the dictionary.
	fr, err = OpenFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(ScanOptions{Predicate: &cmpPredicate{col: 0, op: compute.Gt, lit: arrow.Int64Scalar(3 * 249)}, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, sc); got.NumRows() != 50 {
		t.Fatalf("id > 747 returned %d rows, want 50", got.NumRows())
	}
}

// TestAppendMixesV1AndV2RowGroups appends to a copy of the version 1
// golden file: its flate row groups stay as they are, the new row group
// is written with the current encodings, and one scan reads both.
func TestAppendMixesV1AndV2RowGroups(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mixed.gpq")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := DefaultWriterOptions()
	opts.PageRows = 64
	if err := AppendFile(path, []*arrow.RecordBatch{goldenBatch(300, 200)}, opts); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := fr.Metadata()
	if meta.footer.Version != formatVersion || meta.NumRowGroups() != 3 {
		t.Fatalf("appended file is version %d with %d row groups, want version %d with 3",
			meta.footer.Version, meta.NumRowGroups(), formatVersion)
	}
	codecs := codecsByRowGroup(meta)
	if !codecs[0][CodecFlate] || !codecs[1][CodecFlate] {
		t.Fatalf("old row groups lost their flate pages: %v", codecs)
	}
	if codecs[2][CodecFlate] || !codecs[2][CodecLZ] {
		t.Fatalf("appended row group codecs %v: want lz and no flate", codecs[2])
	}
	if enc := meta.ColumnChunkPages(2, 1)[1].Encoding; enc != EncodingDictPack {
		t.Fatalf("appended name column encoded %s, want %s", enc, EncodingDictPack)
	}
	fr.Close()
	assertScansTo(t, path, goldenBatch(0, 500))
}
