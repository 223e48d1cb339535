package rowformat

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func TestIntegerOrderPreserved(t *testing.T) {
	vals := []int64{math.MinInt64, -100, -1, 0, 1, 42, math.MaxInt64}
	col := arrow.NewInt64(vals)
	enc, err := NewEncoder([]*arrow.DataType{arrow.Int64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := enc.EncodeRows([]arrow.Array{col}, len(vals))
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("key order broken between %d and %d", vals[i-1], vals[i])
		}
	}
}

func TestFloatTotalOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1.5, -0.0, 0.0, 1.5, 1e300, math.Inf(1)}
	col := arrow.NewFloat64(vals)
	enc, _ := NewEncoder([]*arrow.DataType{arrow.Float64}, nil)
	keys := enc.EncodeRows([]arrow.Array{col}, len(vals))
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			t.Fatalf("float key order broken at %d (%v vs %v)", i, vals[i-1], vals[i])
		}
	}
}

func TestStringEscaping(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	col := arrow.NewStringFromSlice(vals)
	enc, _ := NewEncoder([]*arrow.DataType{arrow.String}, nil)
	keys := enc.EncodeRows([]arrow.Array{col}, len(vals))
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("string key order broken between %q and %q", vals[i-1], vals[i])
		}
	}
}

func TestNullPlacement(t *testing.T) {
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	b.AppendNull()
	b.Append(5)
	col := b.Finish()
	// NULLS LAST (default): null key > value key
	encLast, _ := NewEncoder([]*arrow.DataType{arrow.Int64}, nil)
	keys := encLast.EncodeRows([]arrow.Array{col}, 2)
	if bytes.Compare(keys[0], keys[1]) <= 0 {
		t.Fatal("NULLS LAST: null must sort after values")
	}
	// NULLS FIRST
	encFirst, _ := NewEncoder([]*arrow.DataType{arrow.Int64}, []SortOption{{NullsFirst: true}})
	keys = encFirst.EncodeRows([]arrow.Array{col}, 2)
	if bytes.Compare(keys[0], keys[1]) >= 0 {
		t.Fatal("NULLS FIRST: null must sort before values")
	}
}

func TestDescendingInvertsValues(t *testing.T) {
	col := arrow.NewInt64([]int64{1, 2, 3})
	enc, _ := NewEncoder([]*arrow.DataType{arrow.Int64}, []SortOption{{Descending: true}})
	keys := enc.EncodeRows([]arrow.Array{col}, 3)
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) <= 0 {
			t.Fatal("descending keys must invert order")
		}
	}
}

// randomColumns builds n rows of (int64, string, float64) with nulls.
func randomColumns(rng *rand.Rand, n int) []arrow.Array {
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	letters := []string{"", "a", "ab", "b", "ba", "hello", "z\x00z", "z"}
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			ib.AppendNull()
		} else {
			ib.Append(rng.Int63n(20) - 10)
		}
		if rng.Intn(6) == 0 {
			sb.AppendNull()
		} else {
			sb.Append(letters[rng.Intn(len(letters))])
		}
		if rng.Intn(6) == 0 {
			fb.AppendNull()
		} else {
			fb.Append(float64(rng.Intn(40))/4 - 5)
		}
	}
	return []arrow.Array{ib.Finish(), sb.Finish(), fb.Finish()}
}

// Property: bytes.Compare on encoded multi-column keys agrees with the
// generic row comparator for random rows and random sort options.
func TestKeyOrderMatchesComparator(t *testing.T) {
	f := func(seed int64, d1, d2, d3, nf1, nf2, nf3 bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		cols := randomColumns(rng, n)
		opts := []SortOption{{d1, nf1}, {d2, nf2}, {d3, nf3}}
		enc, err := NewEncoder([]*arrow.DataType{arrow.Int64, arrow.String, arrow.Float64}, opts)
		if err != nil {
			return false
		}
		keys := enc.EncodeRows(cols, n)
		sortKeys := []compute.SortKey{
			{Col: 0, Descending: d1, NullsFirst: nf1},
			{Col: 1, Descending: d2, NullsFirst: nf2},
			{Col: 2, Descending: d3, NullsFirst: nf3},
		}
		for trial := 0; trial < 64; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			kc := bytes.Compare(keys[i], keys[j])
			rc := compute.CompareRows(cols, sortKeys, i, j)
			if sign(kc) != sign(rc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// Property: decode(encode(rows)) reproduces the original values exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, d1, d2, d3 bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		cols := randomColumns(rng, n)
		opts := []SortOption{{Descending: d1}, {Descending: d2}, {Descending: d3}}
		enc, err := NewEncoder([]*arrow.DataType{arrow.Int64, arrow.String, arrow.Float64}, opts)
		if err != nil {
			return false
		}
		keys := enc.EncodeRows(cols, n)
		decoded, err := enc.DecodeRows(keys)
		if err != nil {
			return false
		}
		for c := range cols {
			for i := 0; i < n; i++ {
				if !cols[c].GetScalar(i).Equal(decoded[c].GetScalar(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderRejectsNestedTypes(t *testing.T) {
	if _, err := NewEncoder([]*arrow.DataType{arrow.ListOf(arrow.Int64)}, nil); err == nil {
		t.Fatal("list keys must be rejected")
	}
}

func TestDecodeTruncatedKey(t *testing.T) {
	enc, _ := NewEncoder([]*arrow.DataType{arrow.Int64}, nil)
	if _, err := enc.DecodeRows([][]byte{{0x01, 0x00}}); err == nil {
		t.Fatal("truncated key must error")
	}
	if _, err := enc.DecodeRows([][]byte{{}}); err == nil {
		t.Fatal("empty key must error")
	}
}

func TestDate32AndDecimalKeys(t *testing.T) {
	types := []*arrow.DataType{arrow.Date32, arrow.Decimal(12, 2)}
	d := arrow.NewBuilder(arrow.Date32)
	d.AppendScalar(arrow.NewScalar(arrow.Date32, int32(100)))
	d.AppendScalar(arrow.NewScalar(arrow.Date32, int32(-100)))
	m := arrow.NewBuilder(arrow.Decimal(12, 2))
	m.AppendScalar(arrow.NewScalar(arrow.Decimal(12, 2), int64(500)))
	m.AppendScalar(arrow.NewScalar(arrow.Decimal(12, 2), int64(-500)))
	cols := []arrow.Array{d.Finish(), m.Finish()}
	enc, err := NewEncoder(types, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := enc.EncodeRows(cols, 2)
	if bytes.Compare(keys[0], keys[1]) <= 0 {
		t.Fatal("row 0 should sort after row 1")
	}
	dec, err := enc.DecodeRows(keys)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].(*arrow.Int32Array).Value(1) != -100 || dec[1].(*arrow.Int64Array).Value(0) != 500 {
		t.Fatal("decode wrong")
	}
}

// Every decodable type round-trips through its typed decoder, ascending
// and descending, extremes included.
func TestDecodeEveryType(t *testing.T) {
	types := []*arrow.DataType{arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
		arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
		arrow.Float32, arrow.Float64, arrow.Boolean, arrow.String, arrow.Binary}
	rows := [][]any{
		{int8(-128), int16(-32768), int32(math.MinInt32), int64(math.MinInt64),
			uint8(0), uint16(0), uint32(0), uint64(0),
			float32(-1.5), math.Inf(-1), false, "", []byte{}},
		{int8(127), int16(32767), int32(math.MaxInt32), int64(math.MaxInt64),
			uint8(255), uint16(65535), uint32(math.MaxUint32), uint64(math.MaxUint64),
			float32(3.25), 1e300, true, "a\x00\x00b\xff", []byte{0, 0xff, 0, 1}},
		{int8(0), int16(-1), int32(7), int64(-7),
			uint8(1), uint16(256), uint32(65536), uint64(1 << 40),
			float32(0), -0.5, true, "plain", []byte("\x00")},
	}
	builders := make([]arrow.Builder, len(types))
	for c, typ := range types {
		builders[c] = arrow.NewBuilder(typ)
		for _, row := range rows {
			builders[c].AppendScalar(arrow.NewScalar(typ, row[c]))
		}
		builders[c].AppendNull()
	}
	cols := make([]arrow.Array, len(types))
	for c, b := range builders {
		cols[c] = b.Finish()
	}
	n := len(rows) + 1
	for _, desc := range []bool{false, true} {
		opts := make([]SortOption, len(types))
		for i := range opts {
			opts[i].Descending = desc
		}
		enc, err := NewEncoder(types, opts)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := enc.DecodeRows(enc.EncodeRows(cols, n))
		if err != nil {
			t.Fatal(err)
		}
		for c := range cols {
			for i := 0; i < n; i++ {
				if want, got := cols[c].GetScalar(i), decoded[c].GetScalar(i); !want.Equal(got) {
					t.Errorf("desc=%v %s row %d: decoded %v, want %v", desc, types[c], i, got, want)
				}
			}
		}
	}
}

// Decoding appends through the typed builders: what it allocates is builder
// growth, amortized far below one allocation per row.
func TestDecodeAllocsPerRow(t *testing.T) {
	const n = 4096
	cols, types := mixedKeyCols(n)
	opts := make([]SortOption, len(types))
	opts[1].Descending, opts[4].Descending = true, true // one string, one integer
	enc, err := NewEncoder(types, opts)
	if err != nil {
		t.Fatal(err)
	}
	arena, offsets := encodeArena(enc, cols, n)
	perRun := testing.AllocsPerRun(5, func() {
		if _, err := enc.DecodeKeys(n, len(arena), func(i int) []byte { return arena[offsets[i]:] }); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := perRun / n; perRow > 0.1 {
		t.Fatalf("decode allocates %.2f times per row (%v per %d rows)", perRow, perRun, n)
	}
}
