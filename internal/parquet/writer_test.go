package parquet

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/testutil"
)

// randomInts returns n values of a random integer column of type t, every
// fifth one null, spanning the type's range (negatives and, for UInt64,
// values above MaxInt64).
func randomInts(rng *rand.Rand, t *arrow.DataType, n int) arrow.Array {
	b := arrow.NewBuilder(t)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			b.AppendNull()
			continue
		}
		v := rng.Uint64()
		var s any
		switch t.ID {
		case arrow.INT8:
			s = int8(v)
		case arrow.INT16:
			s = int16(v)
		case arrow.INT32, arrow.DATE32:
			s = int32(v)
		case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
			s = int64(v)
		case arrow.UINT8:
			s = uint8(v)
		case arrow.UINT16:
			s = uint16(v)
		case arrow.UINT32:
			s = uint32(v)
		case arrow.UINT64:
			s = v
		}
		b.AppendScalar(arrow.NewScalar(t, s))
	}
	return b.Finish()
}

// randomBytes returns a String or Binary column with empty values, short
// values, long values and nulls.
func randomBytes(rng *rand.Rand, t *arrow.DataType, n int) arrow.Array {
	b := arrow.NewStringBuilder(t)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			b.AppendNull()
		case 1:
			b.Append("")
		default:
			v := make([]byte, rng.Intn(90))
			for j := range v {
				v[j] = byte('a' + rng.Intn(4))
			}
			b.AppendBytes(v)
		}
	}
	return b.Finish()
}

// refInsertHash sets h's probe bits with a plain 64-bit modulo.
func refInsertHash(b *bloomFilter, h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	for i := 0; i < b.k; i++ {
		pos := uint64(h1+uint32(i)*h2) % b.nbits()
		b.bits[pos>>3] |= 1 << (pos & 7)
	}
}

func TestBloomTypedInsertMatchesScalarHash(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []*arrow.DataType{arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
		arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
		arrow.Date32, arrow.Timestamp, arrow.Decimal(12, 2), arrow.String, arrow.Binary}
	for _, typ := range types {
		if !bloomEligible(typ) {
			t.Fatalf("%s is not Bloom-eligible", typ)
		}
		for _, n := range []int{0, 1, 100, 5000} {
			var a arrow.Array
			if typ.ID == arrow.STRING || typ.ID == arrow.BINARY {
				a = randomBytes(rng, typ, n)
			} else {
				a = randomInts(rng, typ, n)
			}
			typed, ref := newBloomFilter(int64(n)), newBloomFilter(int64(n))
			typed.insertArray(a)
			for i := 0; i < n; i++ {
				if h, ok := hashScalarForBloom(a.GetScalar(i)); ok {
					refInsertHash(ref, h)
				}
			}
			if !bytes.Equal(typed.bits, ref.bits) {
				t.Fatalf("%s n=%d: typed insert set other bits than the scalar hashes", typ, n)
			}
			read := &bloomFilter{bits: typed.bits, k: typed.k}
			for i := 0; i < n; i++ {
				if s := a.GetScalar(i); !read.MightContain(s) {
					t.Fatalf("%s n=%d: inserted %v not found", typ, n, s)
				}
			}
		}
	}
}

func TestBloomFastModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := []int64{0, 1, 51, 52, 1000, 1 << 17, 1 << 20, 1 << 30}
	for i := 0; i < 20; i++ {
		sizes = append(sizes, rng.Int63n(1<<19))
	}
	for _, expected := range sizes {
		b := newBloomFilter(expected)
		ref := &bloomFilter{bits: make([]byte, len(b.bits)), k: b.k}
		hashes := []uint64{0, math.MaxUint64, math.MaxUint32, math.MaxUint32 << 32}
		for i := 0; i < 2000; i++ {
			hashes = append(hashes, rng.Uint64())
		}
		for _, h := range hashes {
			b.insertHash(h)
			refInsertHash(ref, h)
		}
		if !bytes.Equal(b.bits, ref.bits) {
			t.Fatalf("nbits %d: fast modulo differs from %%", b.nbits())
		}
	}
}

// wholeChunkStats is a chunk's statistics computed over all its values.
func wholeChunkStats(a arrow.Array) statsMeta {
	return boundsOf(a).stats(a.NullCount(), a.Len())
}

func TestChunkStatsFoldedFromPages(t *testing.T) {
	nan := math.NaN()
	f64 := func(vs ...any) arrow.Array {
		b := arrow.NewNumericBuilder[float64](arrow.Float64)
		for _, v := range vs {
			if v == nil {
				b.AppendNull()
			} else {
				b.Append(v.(float64))
			}
		}
		return b.Finish()
	}
	f32 := func(vs ...float32) arrow.Array {
		return arrow.NewNumeric(arrow.Float32, vs, nil)
	}
	long := strings.Repeat("z", 70)
	strs := func(vs ...any) arrow.Array {
		b := arrow.NewStringBuilder(arrow.String)
		for _, v := range vs {
			if v == nil {
				b.AppendNull()
			} else {
				b.Append(v.(string))
			}
		}
		return b.Finish()
	}
	rng := rand.New(rand.NewSource(3))
	cols := map[string]arrow.Array{
		// Pages of four: a later page led by NaN, the first page led by
		// NaN, an all-NULL page, an all-NaN page.
		"nan later page": f64(1.0, 2.0, 3.0, 4.0, nan, -5.0, 9.0, 0.5),
		"nan first":      f64(nan, 2.0, 3.0, 4.0, -1.0, 8.0, 0.0, 0.0),
		"null page":      f64(nil, nil, nil, nil, 3.0, nan, 1.0, nil),
		"all nan":        f64(nan, nan, nan, nan, nan),
		"float32 nan":    f32(2, 3, 1, 0, float32(nan), -7, 5),
		"long strings":   strs("b", "a", "c", "d", long+"a", nil, long, "zz"+long),
		"null strings":   strs(nil, nil, nil, nil, "x", nil),
		"all null ints":  arrow.NewNumeric(arrow.Int64, make([]int64, 6), arrow.NewBitmap(6)),
		"ints":           randomInts(rng, arrow.Int16, 37),
		"uint64":         randomInts(rng, arrow.Uint64, 37),
		"bools":          arrow.NewBoolFromSlice([]bool{true, true, true, true, false, true}),
		"binary":         randomBytes(rng, arrow.Binary, 37),
	}
	opts := DefaultWriterOptions()
	opts.PageRows = 4
	var e pageEncoder
	for name, col := range cols {
		_, meta, err := e.encodeChunk(nil, col, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := wholeChunkStats(col); !reflect.DeepEqual(meta.Stats, want) {
			t.Errorf("%s: folded stats %+v, whole chunk %+v", name, meta.Stats, want)
		}
	}
}

// failingWriter accepts limit bytes, then fails.
type failingWriter struct{ limit int }

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errWriteFailed
	}
	w.limit -= len(p)
	return len(p), nil
}

// withProcs runs the test body at GOMAXPROCS n, so the writer encodes a
// row group's chunks on n workers whatever the machine.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWriterFailingSink(t *testing.T) {
	withProcs(t, 4)
	var full bytes.Buffer
	fw, err := NewFileWriter(&full, testSchema(), WriterOptions{RowGroupRows: 3000, PageRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	batches := []*arrow.RecordBatch{makeBatch(0, 40000), makeBatch(40000, 40000)}
	for _, b := range batches {
		if err := fw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	before := testutil.SettledGoroutines()
	for _, k := range []int{0, 3, 4, 1 << 10, 1 << 20, 1<<20 + 7, full.Len() - 9, full.Len() - 1} {
		err := func() error {
			fw, err := NewFileWriter(&failingWriter{limit: k}, testSchema(), WriterOptions{RowGroupRows: 3000, PageRows: 500})
			if err != nil {
				return err
			}
			for _, b := range batches {
				if err := fw.Write(b); err != nil {
					return err
				}
			}
			return fw.Close()
		}()
		if !errors.Is(err, errWriteFailed) {
			t.Fatalf("sink failing after %d of %d bytes: err = %v", k, full.Len(), err)
		}
	}
	if after := testutil.SettledGoroutines(); after > before {
		t.Fatalf("goroutines %d -> %d after failed writes", before, after)
	}
}

// unencodable is a schema whose third column no page encoding takes.
func unencodable() *arrow.Schema {
	return arrow.NewSchema(
		arrow.NewField("a", arrow.Int64, false),
		arrow.NewField("b", arrow.String, false),
		arrow.NewField("bad", arrow.Null, true),
		arrow.NewField("c", arrow.Int32, false),
		arrow.NewField("d", arrow.Int64, false),
	)
}

func unencodableBatch(n int) *arrow.RecordBatch {
	src := makeBatch(0, n)
	return arrow.NewRecordBatch(unencodable(), []arrow.Array{
		src.Column(0), src.Column(1), arrow.NewNull(n), src.Column(4),
		src.Column(0),
	})
}

func TestWriterEncodeErrorInOneWorker(t *testing.T) {
	withProcs(t, 4)
	dir := t.TempDir()
	before := testutil.SettledGoroutines()
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unsupported column type") {
			t.Fatalf("%s: err = %v, want the encode error", what, err)
		}
	}

	fw, err := NewFileWriter(&bytes.Buffer{}, unencodable(), WriterOptions{RowGroupRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	wantErr("Write", fw.Write(unencodableBatch(2500)))

	fw, err = NewFileWriter(&bytes.Buffer{}, unencodable(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(unencodableBatch(100)); err != nil {
		t.Fatal(err)
	}
	wantErr("Close", fw.Close())

	wantErr("WriteFile", WriteFile(filepath.Join(dir, "w.gpq"), unencodable(),
		[]*arrow.RecordBatch{unencodableBatch(100)}, DefaultWriterOptions()))

	// A file with no row groups takes the schema; the append fails.
	path := filepath.Join(dir, "a.gpq")
	if err := WriteFile(path, unencodable(), nil, DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	wantErr("AppendFile", AppendFile(path, []*arrow.RecordBatch{unencodableBatch(100)}, DefaultWriterOptions()))

	if after := testutil.SettledGoroutines(); after > before {
		t.Fatalf("goroutines %d -> %d after failed encodes", before, after)
	}
}

// TestWriterSameBytesAtAnyProcs writes one file at several GOMAXPROCS and
// across appends, and requires identical bytes.
func TestWriterSameBytesAtAnyProcs(t *testing.T) {
	dir := t.TempDir()
	opts := WriterOptions{RowGroupRows: 2500, PageRows: 700}
	var want []byte
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run("", func(t *testing.T) {
			withProcs(t, procs)
			path := filepath.Join(dir, "f.gpq")
			if err := WriteFile(path, testSchema(), []*arrow.RecordBatch{makeBatch(0, 6000)}, opts); err != nil {
				t.Fatal(err)
			}
			if err := AppendFile(path, []*arrow.RecordBatch{makeBatch(6000, 3000)}, opts); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d wrote other bytes than GOMAXPROCS=1", procs)
			}
		})
	}
}
