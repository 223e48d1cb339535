package compute

import (
	"fmt"
	"math/rand"
	"testing"

	"gofusion/internal/arrow"
)

func benchInts(n int) *arrow.Int64Array {
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	return arrow.NewInt64(vals)
}

func benchStrings(n int) *arrow.StringArray {
	b := arrow.NewStringBuilder(arrow.String)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		b.Append(fmt.Sprintf("value-%06d", rng.Intn(5000)))
	}
	return b.Finish().(*arrow.StringArray)
}

func BenchmarkCompareScalarInt64(b *testing.B) {
	a := benchInts(8192)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareScalar(Lt, a, arrow.Int64Scalar(500), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterInt64(b *testing.B) {
	a := benchInts(8192)
	batch := arrow.NewRecordBatch(nil, []arrow.Array{a})
	mask, _ := CompareScalar(Lt, a, arrow.Int64Scalar(500), nil)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FilterBatch(batch, mask); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterString(b *testing.B) {
	batch := arrow.NewRecordBatch(nil, []arrow.Array{benchStrings(8192)})
	mask, _ := CompareScalar(Lt, benchInts(8192), arrow.Int64Scalar(500), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FilterBatch(batch, mask); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTakeInt64(b *testing.B) {
	a := benchInts(8192)
	idx := make([]int32, 8192)
	rng := rand.New(rand.NewSource(3))
	for i := range idx {
		idx[i] = int32(rng.Intn(8192))
	}
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Take(a, idx)
	}
}

func BenchmarkHashColumns(b *testing.B) {
	ints := benchInts(8192)
	strs := benchStrings(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashColumns([]arrow.Array{ints, strs}, 8192)
	}
}

func BenchmarkArithAddInt64(b *testing.B) {
	x := benchInts(8192)
	y := benchInts(8192)
	b.SetBytes(8192 * 8 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Arith(Add, x, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLikeContains(b *testing.B) {
	a := benchStrings(8192)
	m, _ := CompileLike("%value-00%", false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eval(a)
	}
}

func BenchmarkSortToIndices(b *testing.B) {
	ints := benchInts(8192)
	strs := benchStrings(8192)
	keys := []SortKey{{Col: 0}, {Col: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortToIndices([]arrow.Array{ints, strs}, keys, 8192)
	}
}

func BenchmarkCastInt64ToFloat64(b *testing.B) {
	a := benchInts(8192)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cast(a, arrow.Float64, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// runMask keeps runs of l rows and drops runs of l rows, alternately.
func runMask(n, l int) *arrow.BoolArray {
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = (i/l)%2 == 0
	}
	return arrow.NewBoolFromSlice(vs)
}

// BenchmarkFilterRunLength gathers an int64, a string and a float64
// column through masks of alternating kept and dropped runs of length l,
// copying run by run (GatherRuns) and row by row (Take over indices). The
// run length where the two cross sets minGatherRun.
func BenchmarkFilterRunLength(b *testing.B) {
	const n = 8192
	fs := make([]float64, n)
	cols := []arrow.Array{benchInts(n), benchStrings(n), arrow.NewFloat64(fs)}
	for _, l := range []int{1, 2, 4, 5, 6, 8, 16, 32} {
		runs := AppendRuns(nil, 0, runMask(n, l))
		var idx []int32
		for _, r := range runs {
			for i := r.Start; i < r.End; i++ {
				idx = append(idx, int32(i))
			}
		}
		b.Run(fmt.Sprintf("runs/len=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, c := range cols {
					if _, err := GatherRuns([]arrow.Array{c}, runs); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("take/len=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, c := range cols {
					Take(c, idx)
				}
			}
		})
	}
}

func BenchmarkFilterBatch(b *testing.B) {
	const n = 8192
	ints := benchInts(n)
	batch := arrow.NewRecordBatchWithRows(nil, []arrow.Array{ints, benchStrings(n)}, n)
	mask, _ := CompareScalar(Lt, ints, arrow.Int64Scalar(500), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FilterBatch(batch, mask); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInSetString probes TPC-H ship modes with q12's list.
func BenchmarkInSetString(b *testing.B) {
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	rng := rand.New(rand.NewSource(4))
	vs := make([]string, 8192)
	for i := range vs {
		vs[i] = modes[rng.Intn(len(modes))]
	}
	a := arrow.NewStringFromSlice(vs)
	set, _ := NewInSet(arrow.String, []arrow.Scalar{arrow.StringScalar("MAIL"), arrow.StringScalar("SHIP")}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.Eval(a, nil); err != nil {
			b.Fatal(err)
		}
	}
}
