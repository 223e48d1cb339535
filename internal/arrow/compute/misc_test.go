package compute

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gofusion/internal/arrow"
)

func TestHashEqualValuesEqualHashes(t *testing.T) {
	a := arrow.NewInt64([]int64{5, 5, 7})
	h := HashColumns([]arrow.Array{a}, 3)
	if h[0] != h[1] {
		t.Fatal("equal values must hash equal")
	}
	if h[0] == h[2] {
		t.Fatal("different values should differ (with overwhelming probability)")
	}
}

func TestHashMultiColumnOrderMatters(t *testing.T) {
	a := arrow.NewInt64([]int64{1})
	b := arrow.NewInt64([]int64{2})
	h1 := HashColumns([]arrow.Array{a, b}, 1)
	h2 := HashColumns([]arrow.Array{b, a}, 1)
	if h1[0] == h2[0] {
		t.Fatal("column order should matter")
	}
}

func TestHashNullsAndTypes(t *testing.T) {
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	ib.AppendNull()
	ib.Append(0)
	a := ib.Finish()
	h := HashColumns([]arrow.Array{a}, 2)
	if h[0] == h[1] {
		t.Fatal("null must hash differently from zero")
	}
	// String hashing
	s := arrow.NewStringFromSlice([]string{"abc", "abc", "abd"})
	hs := HashColumns([]arrow.Array{s}, 3)
	if hs[0] != hs[1] || hs[0] == hs[2] {
		t.Fatal("string hash wrong")
	}
	// Float: -0.0 and +0.0 must hash the same (they compare equal in SQL).
	f := arrow.NewFloat64([]float64{0.0, negZero()})
	hf := HashColumns([]arrow.Array{f}, 2)
	if hf[0] != hf[1] {
		t.Fatal("-0.0 must hash like +0.0")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestHashDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) // sequential keys: worst case for weak hashes
	}
	_ = rng
	h := HashColumns([]arrow.Array{arrow.NewInt64(vals)}, n)
	buckets := make([]int, 64)
	for _, x := range h {
		buckets[x%64]++
	}
	for i, c := range buckets {
		if c < n/64/4 || c > n/64*4 {
			t.Fatalf("bucket %d badly skewed: %d of %d", i, c, n)
		}
	}
}

func TestConcatArrays(t *testing.T) {
	a := arrow.NewInt64([]int64{1, 2})
	bb := arrow.NewNumericBuilder[int64](arrow.Int64)
	bb.AppendNull()
	bb.Append(4)
	b := bb.Finish()
	out, err := Concat([]arrow.Array{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 || out.NullCount() != 1 || !out.IsNull(2) {
		t.Fatalf("concat wrong: %v", out)
	}
	if out.(*arrow.Int64Array).Value(3) != 4 {
		t.Fatal("concat values wrong")
	}
}

func TestConcatStringsWithSlices(t *testing.T) {
	s := arrow.NewStringFromSlice([]string{"aa", "bb", "cc", "dd"})
	sl := s.Slice(1, 2).(*arrow.StringArray) // offsets don't start at 0
	out, err := Concat([]arrow.Array{sl, s})
	if err != nil {
		t.Fatal(err)
	}
	sa := out.(*arrow.StringArray)
	want := []string{"bb", "cc", "aa", "bb", "cc", "dd"}
	for i, w := range want {
		if sa.Value(i) != w {
			t.Fatalf("concat[%d] = %q want %q", i, sa.Value(i), w)
		}
	}
}

// TestGatherRunsMatchesRowCopy gathers random runs over sliced, nullable
// sources of every kernel-specialised type and compares the result with a
// row-at-a-time builder copy. A single run must come back without a copy.
func TestGatherRunsMatchesRowCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := func(typ *arrow.DataType, n int) arrow.Array {
		b := arrow.NewBuilder(typ)
		for i := 0; i < n; i++ {
			switch {
			case rng.Intn(5) == 0:
				b.AppendNull()
			case typ.ID == arrow.STRING:
				b.(*arrow.StringBuilder).Append(strings.Repeat("x", rng.Intn(4)) + fmt.Sprint(i))
			case typ.ID == arrow.BOOL:
				b.(*arrow.BoolBuilder).Append(rng.Intn(2) == 0)
			case typ.ID == arrow.FLOAT64:
				b.(*arrow.NumericBuilder[float64]).Append(float64(i) / 4)
			case typ.ID == arrow.DATE32:
				b.(*arrow.NumericBuilder[int32]).Append(int32(i))
			default:
				b.(*arrow.NumericBuilder[int64]).Append(int64(i))
			}
		}
		return b.Finish()
	}
	for _, typ := range []*arrow.DataType{arrow.Int64, arrow.Float64, arrow.Date32, arrow.String, arrow.Boolean} {
		for trial := 0; trial < 50; trial++ {
			srcs := make([]arrow.Array, 1+rng.Intn(4))
			for i := range srcs {
				n := 1 + rng.Intn(90)
				off := rng.Intn(10)
				srcs[i] = build(typ, n+off+3).Slice(off, n)
			}
			var runs []Run
			for k := 1 + rng.Intn(6); k > 0; k-- {
				src := rng.Intn(len(srcs))
				start := rng.Intn(srcs[src].Len())
				runs = append(runs, Run{Src: src, Start: start, End: start + 1 + rng.Intn(srcs[src].Len()-start)})
			}
			got, err := GatherRuns(srcs, runs)
			if err != nil {
				t.Fatal(err)
			}
			want := arrow.NewBuilder(typ)
			for _, r := range runs {
				for i := r.Start; i < r.End; i++ {
					want.AppendFrom(srcs[r.Src], i)
				}
			}
			w := want.Finish()
			if got.Len() != w.Len() || got.NullCount() != w.NullCount() {
				t.Fatalf("%s runs %v: len %d nulls %d, want len %d nulls %d", typ, runs, got.Len(), got.NullCount(), w.Len(), w.NullCount())
			}
			for i := 0; i < w.Len(); i++ {
				if !got.GetScalar(i).Equal(w.GetScalar(i)) {
					t.Fatalf("%s runs %v: row %d is %v, want %v", typ, runs, i, got.GetScalar(i), w.GetScalar(i))
				}
			}
		}
	}
	src := arrow.NewInt64([]int64{1, 2, 3})
	if got, _ := GatherRuns([]arrow.Array{src}, []Run{{Src: 0, Start: 0, End: 3}}); got != arrow.Array(src) {
		t.Fatal("a run over a whole source must return the source itself")
	}
}

func TestConcatBatches(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	b1 := arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64([]int64{1})})
	b2 := arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64([]int64{2, 3})})
	out, err := ConcatBatches(schema, []*arrow.RecordBatch{b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatal("concat batches wrong")
	}
	empty, err := ConcatBatches(schema, nil)
	if err != nil || empty.NumRows() != 0 || empty.NumCols() != 1 {
		t.Fatal("empty concat wrong")
	}
}

func TestSumAndMinMax(t *testing.T) {
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	b.Append(5)
	b.AppendNull()
	b.Append(-2)
	a := b.Finish()
	sum, count := SumInt64(a)
	if sum != 3 || count != 2 {
		t.Fatalf("sum=%d count=%d", sum, count)
	}
	mn, mx, ok := MinMaxFast(a)
	if !ok || mn.AsInt64() != -2 || mx.AsInt64() != 5 {
		t.Fatalf("minmax wrong: %v %v", mn, mx)
	}
	fsum, fcount := SumFloat64(arrow.NewFloat64([]float64{1.5, 2.5}))
	if fsum != 4.0 || fcount != 2 {
		t.Fatal("float sum wrong")
	}
	// decimal sum as float
	dsum, _ := SumFloat64(arrow.NewNumeric(arrow.Decimal(12, 2), []int64{150}, nil))
	if dsum != 1.5 {
		t.Fatal("decimal sum wrong")
	}
	// all-null
	nb := arrow.NewNumericBuilder[int64](arrow.Int64)
	nb.AppendNull()
	_, _, ok = MinMaxFast(nb.Finish())
	if ok {
		t.Fatal("all-null minmax must be !ok")
	}
}

func TestMinMaxString(t *testing.T) {
	a := arrow.NewStringFromSlice([]string{"pear", "apple", "zebra"})
	mn, mx, ok := MinMaxFast(a)
	if !ok || mn.AsString() != "apple" || mx.AsString() != "zebra" {
		t.Fatal("string minmax wrong")
	}
}

// TestMinMaxFastMatchesMinMax checks the typed loops against the boxed
// one on random arrays with NULLs, every integer-backed type, Float32, and
// the empty and all-NULL cases.
func TestMinMaxFastMatchesMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	types := []*arrow.DataType{arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
		arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
		arrow.Date32, arrow.Timestamp, arrow.Decimal(10, 3), arrow.Float32}
	for _, typ := range types {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			for _, nullEvery := range []int{0, 3, 1} {
				b := arrow.NewBuilder(typ)
				for i := 0; i < n; i++ {
					if nullEvery > 0 && i%nullEvery == 0 {
						b.AppendNull()
						continue
					}
					v := rng.Uint64()
					var s any
					switch typ.ID {
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
					case arrow.FLOAT32:
						s = float32(rng.NormFloat64())
					}
					b.AppendScalar(arrow.NewScalar(typ, s))
				}
				a := b.Finish()
				fmn, fmx, fok := MinMaxFast(a)
				mn, mx, ok := MinMax(a)
				if fok != ok || fmn != mn || fmx != mx {
					t.Fatalf("%s n=%d nullEvery=%d: MinMaxFast (%v, %v, %v), MinMax (%v, %v, %v)",
						typ, n, nullEvery, fmn, fmx, fok, mn, mx, ok)
				}
			}
		}
	}
}

func TestLikeShapes(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"he%", "hello", true},
		{"he%", "ahead", false},
		{"%llo", "hello", true},
		{"%ell%", "hello", true},
		{"%ell%", "halo", false},
		{"%a%b%", "xxaxxbxx", true},
		{"%a%b%", "xxbxxaxx", false},
		{"h_llo", "hello", true},
		{"h_llo", "hllo", false},
		{"%", "anything", true},
		{"100\\%", "100%", true},
		{"100\\%", "1000", false},
		{"%special regex .*%", "has special regex .* inside", true},
	}
	for _, c := range cases {
		m, err := CompileLike(c.pattern, false)
		if err != nil {
			t.Fatalf("compile %q: %v", c.pattern, err)
		}
		if got := m.Match([]byte(c.input)); got != c.want {
			t.Fatalf("LIKE %q on %q = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
	// negation
	m, _ := CompileLike("he%", true)
	if m.Match([]byte("hello")) || !m.Match([]byte("bye")) {
		t.Fatal("NOT LIKE wrong")
	}
}

func TestLikeEval(t *testing.T) {
	b := arrow.NewStringBuilder(arrow.String)
	b.Append("google.com")
	b.AppendNull()
	b.Append("example.org")
	a := b.Finish().(*arrow.StringArray)
	m, _ := CompileLike("%google%", false)
	out := m.Eval(a)
	if !out.Value(0) || !out.IsNull(1) || out.Value(2) {
		t.Fatal("like eval wrong")
	}
}

func TestSortToIndices(t *testing.T) {
	col := arrow.NewInt64([]int64{3, 1, 2})
	idx := SortToIndices([]arrow.Array{col}, []SortKey{{Col: 0}}, 3)
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("sort wrong: %v", idx)
	}
	idxDesc := SortToIndices([]arrow.Array{col}, []SortKey{{Col: 0, Descending: true}}, 3)
	if idxDesc[0] != 0 || idxDesc[2] != 1 {
		t.Fatalf("desc sort wrong: %v", idxDesc)
	}
}

func TestSortToIndicesNullsAndTies(t *testing.T) {
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	b.Append(2)
	b.AppendNull()
	b.Append(1)
	b.Append(2)
	col := b.Finish()
	second := arrow.NewStringFromSlice([]string{"b", "x", "y", "a"})
	// ASC NULLS LAST, tie-break by string ASC
	idx := SortToIndices([]arrow.Array{col, second}, []SortKey{{Col: 0}, {Col: 1}}, 4)
	want := []int32{2, 3, 0, 1}
	for i, w := range want {
		if idx[i] != w {
			t.Fatalf("sort = %v, want %v", idx, want)
		}
	}
	// NULLS FIRST
	idxNF := SortToIndices([]arrow.Array{col}, []SortKey{{Col: 0, NullsFirst: true}}, 4)
	if idxNF[0] != 1 {
		t.Fatalf("nulls first wrong: %v", idxNF)
	}
}
