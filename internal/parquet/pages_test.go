package parquet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
)

// pageTypes is every column type GPQ stores.
var pageTypes = []*arrow.DataType{
	arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
	arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
	arrow.Float32, arrow.Float64, arrow.Date32, arrow.Timestamp, arrow.Decimal(18, 2),
	arrow.Boolean, arrow.String, arrow.Binary,
}

// Value shapes the generators produce.
const (
	shapeRandom   = "random"   // full-width random bits
	shapeSmall    = "small"    // a narrow range
	shapeConstant = "constant" // one value
	shapeSorted   = "sorted"   // ascending with small steps
	shapeRuns     = "runs"     // long runs of a few values
	shapeExtremes = "extremes" // min and max alternating: deltas wrap
)

var pageShapes = []string{shapeRandom, shapeSmall, shapeConstant, shapeSorted, shapeRuns, shapeExtremes}

func genInts[T packable](rng *rand.Rand, n int, shape string) []T {
	lo, hi := T(0), ^T(0)
	if hi < lo { // signed: ^0 is -1
		lo = T(1) << (binary.Size(lo)*8 - 1)
		hi = ^lo
	}
	vs := make([]T, n)
	base := T(rng.Uint64())
	for i := range vs {
		switch shape {
		case shapeRandom:
			vs[i] = T(rng.Uint64())
		case shapeSmall:
			vs[i] = T(rng.Intn(100)) - 50
		case shapeConstant:
			vs[i] = base
		case shapeSorted:
			base += T(rng.Intn(3))
			vs[i] = base
		case shapeRuns:
			if rng.Intn(40) == 0 {
				base = T(rng.Intn(5))
			}
			vs[i] = base
		case shapeExtremes:
			vs[i] = lo
			if i%2 == 1 {
				vs[i] = hi
			}
		}
	}
	return vs
}

func genValidity(rng *rand.Rand, n int, nulls string) arrow.Bitmap {
	switch nulls {
	case "some":
		valid := arrow.NewBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) != 0 {
				valid.Set(i)
			}
		}
		return valid
	case "all":
		return arrow.NewBitmap(n)
	}
	return nil
}

func genNumeric[T packable](rng *rand.Rand, t *arrow.DataType, n int, shape, nulls string) arrow.Array {
	return arrow.NewNumeric(t, genInts[T](rng, n, shape), genValidity(rng, n, nulls))
}

// genArray builds an n-slot array of type t. nulls is "none", "some" or
// "all".
func genArray(rng *rand.Rand, t *arrow.DataType, n int, shape, nulls string) arrow.Array {
	switch t.ID {
	case arrow.INT8:
		return genNumeric[int8](rng, t, n, shape, nulls)
	case arrow.INT16:
		return genNumeric[int16](rng, t, n, shape, nulls)
	case arrow.INT32, arrow.DATE32:
		return genNumeric[int32](rng, t, n, shape, nulls)
	case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
		return genNumeric[int64](rng, t, n, shape, nulls)
	case arrow.UINT8:
		return genNumeric[uint8](rng, t, n, shape, nulls)
	case arrow.UINT16:
		return genNumeric[uint16](rng, t, n, shape, nulls)
	case arrow.UINT32:
		return genNumeric[uint32](rng, t, n, shape, nulls)
	case arrow.UINT64:
		return genNumeric[uint64](rng, t, n, shape, nulls)
	case arrow.FLOAT32:
		vs := make([]float32, n)
		for i, v := range genInts[int32](rng, n, shape) {
			vs[i] = float32(v) / 4
		}
		return arrow.NewNumeric(t, vs, genValidity(rng, n, nulls))
	case arrow.FLOAT64:
		vs := make([]float64, n)
		for i, v := range genInts[int64](rng, n, shape) {
			vs[i] = float64(v) / 4
		}
		return arrow.NewNumeric(t, vs, genValidity(rng, n, nulls))
	case arrow.BOOL:
		vals := arrow.NewBitmap(n)
		for i, v := range genInts[uint8](rng, n, shape) {
			vals.Put(i, v&1 == 1)
		}
		return arrow.NewBool(vals, genValidity(rng, n, nulls), n)
	case arrow.STRING, arrow.BINARY:
		b := arrow.NewStringBuilder(t)
		valid := genValidity(rng, n, nulls)
		for i, v := range genInts[uint16](rng, n, shape) {
			if valid != nil && !valid.Get(i) {
				b.AppendNull()
			} else {
				b.Append(fmt.Sprintf("http://site-%d.example/%s", v%7, bytes.Repeat([]byte{'a' + byte(v%26)}, int(v%40))))
			}
		}
		return b.Finish()
	}
	panic("unsupported type " + t.String())
}

func assertArraysEqual(t testing.TB, want, got arrow.Array) {
	t.Helper()
	if got.Len() != want.Len() || got.NullCount() != want.NullCount() || !got.DataType().Equal(want.DataType()) {
		t.Fatalf("decoded %s len %d nulls %d, want %s len %d nulls %d",
			got.DataType(), got.Len(), got.NullCount(), want.DataType(), want.Len(), want.NullCount())
	}
	for i := 0; i < want.Len(); i++ {
		// NaN equals nothing, itself included, but prints the same.
		if w, g := want.GetScalar(i), got.GetScalar(i); !w.Equal(g) && w.String() != g.String() {
			t.Fatalf("slot %d: decoded %s, want %s", i, g, w)
		}
	}
}

// storedPage is a page as it would sit in a file, with what the footer
// would say about it.
type storedPage struct {
	bytes []byte
	enc   string
	rows  int
	typ   *arrow.DataType
}

func (p storedPage) decode() (arrow.Array, error) {
	return decodePage(p.bytes, p.enc, p.rows, p.typ)
}

// store lays an encoded page of a out as the writer does.
func store(p encodedPage, a arrow.Array) storedPage {
	out, _ := appendPage(nil, p)
	return storedPage{bytes: out, enc: p.encoding, rows: a.Len(), typ: a.DataType()}
}

// encodeAs encodes a with enc; integer encodings that cannot represent
// the page report false.
func encodeAs(e *pageEncoder, a arrow.Array, enc string) (encodedPage, bool) {
	head := appendPageHeader(nil, a.Len(), a.Validity())
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Int16Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Int32Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Int64Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Uint8Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Uint16Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Uint32Array:
		return encodeIntsForced(head, enc, arr.Values())
	case *arrow.Uint64Array:
		return encodeIntsForced(head, enc, arr.Values())
	}
	p, err := e.encode(a)
	return p, err == nil && p.encoding == enc
}

func encodeIntsForced[T packable](head []byte, enc string, vs []T) (encodedPage, bool) {
	st := analyzeInts(vs)
	if _, ok := intEncodedSize(enc, st, len(vs), len(arrow.NumericBytes(vs))); !ok {
		return encodedPage{}, false
	}
	return encodeIntsAs(head, enc, vs, st), true
}

var allEncodings = []string{EncodingPlain, EncodingBitPack, EncodingRLE, EncodingDelta, EncodingDeltaLen}

// TestPageRoundTrip encodes every type with every encoding that can hold
// it, over every value shape, null pattern and page size, whole and
// sliced, and requires the decoded array to equal the input.
func TestPageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e pageEncoder
	covered := map[string]bool{}
	for _, typ := range pageTypes {
		for _, shape := range pageShapes {
			for _, nulls := range []string{"none", "some", "all"} {
				for _, n := range []int{0, 1, 2, 7, 64, 1000} {
					for _, sliced := range []bool{false, true} {
						a := genArray(rng, typ, n, shape, nulls)
						if sliced {
							a = genArray(rng, typ, n+20, shape, nulls).Slice(7, n)
						}
						for _, enc := range allEncodings {
							p, ok := encodeAs(&e, a, enc)
							if !ok {
								continue
							}
							got, err := store(p, a).decode()
							if err != nil {
								t.Fatalf("%s %s nulls=%s n=%d %s: %v", typ, shape, nulls, n, enc, err)
							}
							assertArraysEqual(t, a, got)
							covered[enc] = true
						}
						// The writer's own choice round-trips too.
						p, err := e.encode(a)
						if err != nil {
							t.Fatal(err)
						}
						got, err := store(p, a).decode()
						if err != nil {
							t.Fatalf("%s %s nulls=%s n=%d chosen %s: %v", typ, shape, nulls, n, p.encoding, err)
						}
						assertArraysEqual(t, a, got)
					}
				}
			}
		}
	}
	for _, want := range allEncodings {
		if !covered[want] {
			t.Errorf("no page exercised %s", want)
		}
	}
}

// TestWriterEncodingSelection pins which encoding the writer picks for
// the column shapes it was built around.
func TestWriterEncodingSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	urls := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		urls.Append(fmt.Sprintf("http://shop.example.org/p/%d", rng.Intn(1_000_000)))
	}
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	cases := []struct {
		name string
		arr  arrow.Array
		enc  string
	}{
		{"constant", genArray(rng, arrow.Int32, n, shapeConstant, "none"), EncodingRLE},
		{"long runs", genArray(rng, arrow.Int16, n, shapeRuns, "none"), EncodingRLE},
		{"small range", genArray(rng, arrow.Int64, n, shapeSmall, "none"), EncodingBitPack},
		{"sorted", genArray(rng, arrow.Timestamp, n, shapeSorted, "none"), EncodingDelta},
		{"random", genArray(rng, arrow.Int64, n, shapeRandom, "none"), EncodingPlain},
		{"extremes", genArray(rng, arrow.Int64, n, shapeExtremes, "none"), EncodingDelta},
		{"repeated floats", genArray(rng, arrow.Float64, n, shapeRuns, "none"), EncodingPlain},
		{"noise floats", arrow.NewNumeric(arrow.Float64, noise, nil), EncodingPlain},
		{"urls", urls.Finish(), EncodingDeltaLen},
	}
	var e pageEncoder
	for _, c := range cases {
		p, err := e.encode(c.arr)
		if err != nil {
			t.Fatal(err)
		}
		if p.encoding != c.enc {
			t.Errorf("%s: writer chose %s, want %s", c.name, p.encoding, c.enc)
		}
	}

	// Through the file writer: a low-cardinality string column is a dlen
	// column like any other, and the footer names this format version.
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 5000, WriterOptions{RowGroupRows: 5000})
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	meta := fr.Metadata()
	if meta.footer.Version != formatVersion {
		t.Fatalf("footer version %d, want %d", meta.footer.Version, formatVersion)
	}
	for col, want := range []string{EncodingDelta, EncodingDeltaLen, EncodingPlain, EncodingPlain, EncodingBitPack} {
		for _, p := range meta.ColumnChunkPages(0, col) {
			if p.Encoding != want {
				t.Errorf("column %d: page encoded %s, want %s", col, p.Encoding, want)
			}
		}
	}
}

// seedPages returns one stored n-row page per encoding x type x value
// shape the writer produces. They seed the fuzz target, the corruption
// test and the decode benchmark.
func seedPages(t testing.TB, n int) map[string]storedPage {
	rng := rand.New(rand.NewSource(5))
	var e pageEncoder
	pages := map[string]storedPage{}
	// Each encoding gets the value shape it is chosen for; plain also gets
	// runs, and dlen the few repeated strings of a low-cardinality column.
	shapesFor := map[string][]string{
		EncodingPlain:    {shapeRandom, shapeRuns},
		EncodingBitPack:  {shapeSmall},
		EncodingRLE:      {shapeRuns},
		EncodingDelta:    {shapeSorted},
		EncodingDeltaLen: {shapeRandom, shapeRuns},
	}
	for _, typ := range pageTypes {
		for _, enc := range allEncodings {
			for _, shape := range shapesFor[enc] {
				a := genArray(rng, typ, n, shape, "some")
				if p, ok := encodeAs(&e, a, enc); ok {
					pages[fmt.Sprintf("%s/%s/%s", typ, enc, shape)] = store(p, a)
				}
			}
		}
	}
	return pages
}

// TestCorruptPagesReturnErrors truncates every seed page at every length
// and flips bytes throughout: a truncated page must be an error, a
// damaged one an error or some array, and neither may panic.
func TestCorruptPagesReturnErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for name, sp := range seedPages(t, 300) {
		want, err := sp.decode()
		if err != nil {
			t.Fatalf("%s: seed page does not decode: %v", name, err)
		}
		for cut := 0; cut < len(sp.bytes); cut++ {
			short := sp
			short.bytes = sp.bytes[:cut]
			if _, err := short.decode(); err == nil {
				t.Fatalf("%s: decoded after truncation to %d of %d bytes", name, cut, len(sp.bytes))
			}
		}
		for round := 0; round < 300; round++ {
			bad := sp
			bad.bytes = append([]byte(nil), sp.bytes...)
			for k := 0; k <= rng.Intn(3); k++ {
				bad.bytes[rng.Intn(len(bad.bytes))] ^= byte(1 + rng.Intn(255))
			}
			if got, err := bad.decode(); err == nil {
				walkArray(got)
			}
		}
		wrong := sp
		wrong.rows++
		if _, err := wrong.decode(); err == nil {
			t.Fatalf("%s: decoded with the wrong row count", name)
		}
		assertArraysEqual(t, want, mustDecode(t, sp))
	}
}

func mustDecode(t testing.TB, sp storedPage) arrow.Array {
	t.Helper()
	a, err := sp.decode()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// walkArray touches every value, so offsets a decoder let through
// unchecked would fault here.
func walkArray(a arrow.Array) {
	for i := 0; i < a.Len(); i++ {
		_ = a.GetScalar(i)
	}
}
