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
	mask, _ := CompareScalar(Lt, a, arrow.Int64Scalar(500), nil)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Filter(a, mask); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterString(b *testing.B) {
	a := benchStrings(8192)
	mask, _ := CompareScalar(Lt, benchInts(8192), arrow.Int64Scalar(500), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Filter(a, mask); err != nil {
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
