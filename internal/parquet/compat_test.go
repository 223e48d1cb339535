package parquet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
)

// v1EncodingDict names the version 1 dictionary page layout, which this
// package no longer reads.
const v1EncodingDict = "dict"

// footerOf returns the footer JSON of a GPQ file.
func footerOf(data []byte) []byte {
	n := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	return data[len(data)-8-n : len(data)-8]
}

// writeVersionedFile writes a small valid file whose footer names format
// version v.
func writeVersionedFile(t *testing.T, v int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "versioned.gpq")
	if err := WriteFile(path, gridSchema(), []*arrow.RecordBatch{gridBatch(300)},
		WriterOptions{RowGroupRows: 150, PageRows: 64}); err != nil {
		t.Fatal(err)
	}
	return rewriteFooter(t, path, func(f *fileFooter) { f.Version = v })
}

// TestOtherFormatVersionsRejected: a footer that names another version,
// or none (0), is the package's format error at open, and AppendFile
// refuses the file without changing a byte of it. Version 2 may hold
// pages under the "lz" codec and version 3 "dictpack" pages, both of
// which this version dropped. The same file naming this version opens.
func TestOtherFormatVersionsRejected(t *testing.T) {
	for _, v := range []int{0, 1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			path := writeVersionedFile(t, v)
			if v == formatVersion {
				fr, err := OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				fr.Close()
				return
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadMetadata(bytes.NewReader(before), int64(len(before))); !errors.Is(err, errFormat) {
				t.Fatalf("ReadMetadata: %v, want the format error", err)
			}
			if _, err := OpenFile(path); !errors.Is(err, errFormat) {
				t.Fatalf("OpenFile: %v, want the format error", err)
			}
			if err := AppendFile(path, []*arrow.RecordBatch{gridBatch(10)}, DefaultWriterOptions()); !errors.Is(err, errFormat) {
				t.Fatalf("AppendFile: %v, want the format error", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("AppendFile changed the refused file: %d bytes before, %d after", len(before), len(after))
			}
		})
	}
}

func deflate(t testing.TB, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1StringBody lays a string page out as version 1 stored it: the page
// header, then offsets (n+1)*4 | u32 dataLen | data.
func v1StringBody(a *arrow.StringArray) []byte {
	body := appendPageHeader(nil, a.Len(), a.Validity())
	offs := a.Offsets()
	base := offs[0]
	for _, o := range offs[:a.Len()+1] {
		body = binary.LittleEndian.AppendUint32(body, uint32(o-base))
	}
	data := a.Data()[base:offs[a.Len()]]
	body = binary.LittleEndian.AppendUint32(body, uint32(len(data)))
	return append(body, data...)
}

// v1Pages returns n-row pages in the layouts only version 1 wrote: every
// type's plain page compressed by its "flate" codec, string pages with
// stored offsets, and "dict" pages of u32 indexes. Each is well formed for
// version 1 and must be a format error now.
func v1Pages(t testing.TB, n int) map[string]storedPage {
	rng := rand.New(rand.NewSource(9))
	var e pageEncoder
	pages := map[string]storedPage{}
	for _, typ := range pageTypes {
		a := genArray(rng, typ, n, shapeRandom, "some")
		sp := storedPage{enc: EncodingPlain, rows: n, typ: typ}
		if s, ok := a.(*arrow.StringArray); ok {
			sp.bytes = v1StringBody(s)
			pages[fmt.Sprintf("v1:%s/plain/", typ)] = sp
		} else {
			p, ok := encodeAs(&e, a, EncodingPlain)
			if !ok {
				t.Fatalf("%s: no plain page", typ)
			}
			sp.bytes = store(p, a).bytes
		}
		sp.bytes = deflate(t, sp.bytes)
		pages[fmt.Sprintf("v1:%s/plain/flate", typ)] = sp
	}
	body := appendPageHeader(nil, n, nil)
	for i := 0; i < n; i++ {
		body = binary.LittleEndian.AppendUint32(body, uint32(rng.Intn(4)))
	}
	sp := storedPage{bytes: body, enc: v1EncodingDict, rows: n, typ: arrow.String}
	pages["v1:string/dict/"] = sp
	sp.bytes = deflate(t, body)
	pages["v1:string/dict/flate"] = sp
	return pages
}

// TestV1PagesRejected: a flate-compressed page, a page in the dict
// encoding, and a plain-encoded string page are format errors.
func TestV1PagesRejected(t *testing.T) {
	for name, sp := range v1Pages(t, 100) {
		if _, err := sp.decode(); !errors.Is(err, errFormat) {
			t.Errorf("%s: decoded with error %v, want the format error", name, err)
		}
	}
}
