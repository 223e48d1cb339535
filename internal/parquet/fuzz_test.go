package parquet

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gofusion/internal/arrow"
)

var (
	fuzzEncodings = []string{EncodingPlain, EncodingBitPack, EncodingRLE, EncodingDelta,
		EncodingDeltaLen, EncodingDictPack, v1EncodingDict, "unknown"}
	fuzzCodecs = []string{CodecNone, CodecLZ, v1CodecFlate, "unknown"}
)

// FuzzDecodePage feeds arbitrary bytes to every decoder. A page must be
// rejected with an error or decode to an array of the stated row count
// whose every value can be read, and which re-encodes and decodes to
// itself; nothing may panic. The version 1 layouts seed it too.
func FuzzDecodePage(f *testing.F) {
	seeds := seedPages(f, 40)
	maps.Copy(seeds, v1Pages(f, 40))
	for _, sp := range seeds {
		typ := slices.IndexFunc(pageTypes, func(t *arrow.DataType) bool { return t.Equal(sp.typ) })
		f.Add(uint8(typ), uint8(slices.Index(fuzzEncodings, sp.enc)), uint8(slices.Index(fuzzCodecs, sp.codec)),
			uint16(sp.rows), sp.bytes)
	}
	dict := arrow.NewStringFromSlice([]string{"", "alpha", "beta", "gamma", "delta"})
	f.Fuzz(func(t *testing.T, typ, enc, codec uint8, rows uint16, data []byte) {
		sp := storedPage{
			bytes: data,
			typ:   pageTypes[int(typ)%len(pageTypes)],
			enc:   fuzzEncodings[int(enc)%len(fuzzEncodings)],
			codec: fuzzCodecs[int(codec)%len(fuzzCodecs)],
			rows:  int(rows),
			dict:  dict,
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
		again, err := store(&e, p, true, got).decode()
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		assertArraysEqual(t, got, again)
	})
}

// FuzzReadMetadata feeds arbitrary footers to ReadMetadata inside an
// otherwise well-formed file frame. A footer must be rejected with an
// error (a footer of another format version with the format error), or
// the chunk and file statistics the catalog's pruning and the
// scan read must answer for every row group and column, with min/max
// values that print as their column's type; nothing may panic.
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
	f.Add(footerOf(data))
	v1, err := os.ReadFile(rewriteFooter(f, path, func(ff *fileFooter) { ff.Version = 1 }))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(footerOf(v1))
	f.Fuzz(func(t *testing.T, footer []byte) {
		file := append([]byte(Magic), footer...)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(footer)))
		file = append(file, Magic...)
		m, err := ReadMetadata(bytes.NewReader(file), int64(len(file)))
		if err != nil {
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
