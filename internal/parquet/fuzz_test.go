package parquet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

var fuzzEncodings = []string{EncodingPlain, EncodingBitPack, EncodingRLE, EncodingDelta,
	EncodingDeltaLen, v1EncodingDict, "unknown"}

// FuzzDecodePage feeds arbitrary bytes to every decoder. A page must be
// rejected with an error or decode to an array of the stated row count
// whose every value can be read, and which re-encodes and decodes to
// itself; nothing may panic. The version 1 layouts seed it too.
func FuzzDecodePage(f *testing.F) {
	seeds := seedPages(f, 40)
	maps.Copy(seeds, v1Pages(f, 40))
	for _, sp := range seeds {
		typ := slices.IndexFunc(pageTypes, func(t *arrow.DataType) bool { return t.Equal(sp.typ) })
		f.Add(uint8(typ), uint8(slices.Index(fuzzEncodings, sp.enc)), uint16(sp.rows), sp.bytes)
	}
	f.Fuzz(func(t *testing.T, typ, enc uint8, rows uint16, data []byte) {
		sp := storedPage{
			bytes: data,
			typ:   pageTypes[int(typ)%len(pageTypes)],
			enc:   fuzzEncodings[int(enc)%len(fuzzEncodings)],
			rows:  int(rows),
		}
		got, err := sp.decode()
		if err != nil {
			return
		}
		if got.Len() != sp.rows || !got.DataType().Equal(sp.typ) {
			t.Fatalf("decoded %s of %d rows, want %s of %d", got.DataType(), got.Len(), sp.typ, sp.rows)
		}
		walkArray(got)
		var e pageEncoder
		p, err := e.encode(got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := store(p, got).decode()
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		assertArraysEqual(t, got, again)
	})
}

// FuzzReadMetadata feeds arbitrary footers to ReadMetadata after the data
// section of a small well-formed file, so the seed's own footer opens. A
// footer must be rejected with the format error, or the chunk and file
// statistics the catalog's pruning and the scan read must answer for
// every row group and column, with min/max values that print as their
// column's type; nothing may panic.
func FuzzReadMetadata(f *testing.F) {
	// A small seed keeps the minimization of each new input short: two
	// row groups of one row over every statistics kind.
	path := filepath.Join(f.TempDir(), "seed.gpq")
	if err := WriteFile(path, gridSchema(), []*arrow.RecordBatch{gridBatch(2)},
		WriterOptions{RowGroupRows: 1}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := data[:len(data)-8-len(footerOf(data))]
	f.Add(footerOf(data))
	v1, err := os.ReadFile(rewriteFooter(f, path, func(ff *fileFooter) { ff.Version = 1 }))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(footerOf(v1))
	f.Fuzz(func(t *testing.T, footer []byte) {
		file := append(bytes.Clone(body), footer...)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(footer)))
		file = append(file, Magic...)
		m, err := ReadMetadata(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			if !errors.Is(err, errFormat) {
				t.Fatalf("%v, want the format error", err)
			}
			return
		}
		if m.footer.Version != formatVersion {
			t.Fatalf("read a version %d footer", m.footer.Version)
		}
		for rg := 0; rg < m.NumRowGroups(); rg++ {
			m.RowGroupRows(rg)
			for col := 0; col < m.Schema.NumFields(); col++ {
				cs := m.ColumnChunkStats(rg, col)
				_ = cs.Min.String() + cs.Max.String()
				m.ColumnChunkPages(rg, col)
			}
		}
		for col := 0; col < m.Schema.NumFields(); col++ {
			cs := m.ColumnStatsForFile(col)
			_ = cs.Min.String() + cs.Max.String()
		}
	})
}

// eqPredicate returns an equality predicate on the first string column
// of schema, else on the first int64 column, typed as a planner would
// type it; nil when there is neither.
func eqPredicate(schema *arrow.Schema) Predicate {
	fields := schema.Fields()
	if col := slices.IndexFunc(fields, func(f arrow.Field) bool { return f.Type.ID == arrow.STRING }); col >= 0 {
		return &cmpPredicate{col: col, op: compute.Eq, lit: arrow.StringScalar("name-05")}
	}
	if col := slices.IndexFunc(fields, func(f arrow.Field) bool { return f.Type.ID == arrow.INT64 }); col >= 0 {
		return &cmpPredicate{col: col, op: compute.Eq, lit: arrow.Int64Scalar(105)}
	}
	return nil
}

// FuzzScanFile damages small well-formed files, which have Bloom filters
// and several pages per chunk: an input gives the footer JSON and one byte
// of the data section to flip (flip 0 leaves the pages alone). It opens
// the file with NewReader and runs an equality scan with pruning on. The
// only acceptable outcomes are at most the footer's row count of rows or
// an error wrapping the format error; nothing may panic. ReadMetadata
// checks the footer's row counts against its pages, so the scan needs no
// limit.
func FuzzScanFile(f *testing.F) {
	var bodies [][]byte
	for i, opts := range []WriterOptions{
		{RowGroupRows: 200, PageRows: 64},
		{RowGroupRows: 150, PageRows: 100},
	} {
		path := filepath.Join(f.TempDir(), "seed.gpq")
		writeTestFile(f, path, 400, opts)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		footer := footerOf(data)
		body := data[:len(data)-8-len(footer)]
		bodies = append(bodies, body)
		f.Add(uint8(i), footer, uint32(0), byte(0))
		for _, at := range []int{1, 9, len(body) / 2, len(body) - 9} {
			f.Add(uint8(i), footer, uint32(at), byte(0x5a))
		}
		for _, edit := range []func(*pageMeta){
			func(p *pageMeta) { p.Len = -5 },
			func(p *pageMeta) { p.Offset = 1 << 40 },
		} {
			hostile, err := os.ReadFile(rewriteFooter(f, path, func(ft *fileFooter) { edit(&ft.RowGroups[0].Columns[1].Pages[0]) }))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), footerOf(hostile), uint32(0), byte(0))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, footer []byte, at uint32, flip byte) {
		file := bytes.Clone(bodies[int(which)%len(bodies)])
		file[len(Magic)+int(at%uint32(len(file)-len(Magic)))] ^= flip
		file = append(file, footer...)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(footer)))
		file = append(file, Magic...)
		fr, err := NewReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			if !errors.Is(err, errFormat) {
				t.Fatalf("open: %v, want the format error", err)
			}
			return
		}
		rows, err := drain(fr, ScanOptions{Predicate: eqPredicate(fr.Schema())})
		if err != nil && !errors.Is(err, errFormat) {
			t.Fatalf("%v, want rows or the format error", err)
		}
		if int64(rows) > fr.NumRows() {
			t.Fatalf("scan returned %d rows of a %d-row file", rows, fr.NumRows())
		}
	})
}
