package rowformat

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func benchCols(n int) []arrow.Array {
	rng := rand.New(rand.NewSource(1))
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		ib.Append(rng.Int63n(10000))
		sb.Append(fmt.Sprintf("key-%05d", rng.Intn(10000)))
	}
	return []arrow.Array{ib.Finish(), sb.Finish()}
}

func BenchmarkEncodeRows(b *testing.B) {
	cols := benchCols(8192)
	enc, _ := NewEncoder([]*arrow.DataType{arrow.Int64, arrow.String}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeRows(cols, 8192)
	}
}

// BenchmarkSortWithRowFormat vs BenchmarkSortGenericComparator is the
// paper's §6.6 motivation in miniature.
func BenchmarkSortWithRowFormat(b *testing.B) {
	cols := benchCols(8192)
	enc, _ := NewEncoder([]*arrow.DataType{arrow.Int64, arrow.String}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := enc.EncodeRows(cols, 8192)
		idx := make([]int32, 8192)
		for j := range idx {
			idx[j] = int32(j)
		}
		sort.SliceStable(idx, func(a, c int) bool {
			return bytes.Compare(keys[idx[a]], keys[idx[c]]) < 0
		})
	}
}

func BenchmarkSortGenericComparator(b *testing.B) {
	cols := benchCols(8192)
	keys := []compute.SortKey{{Col: 0}, {Col: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compute.SortToIndices(cols, keys, 8192)
	}
}

// mixedKeyCols builds the H2O q10 key shape: three string and three
// integer group keys.
func mixedKeyCols(n int) ([]arrow.Array, []*arrow.DataType) {
	rng := rand.New(rand.NewSource(2))
	var cols []arrow.Array
	var types []*arrow.DataType
	for c := 0; c < 3; c++ {
		sb := arrow.NewStringBuilder(arrow.String)
		for i := 0; i < n; i++ {
			sb.Append(fmt.Sprintf("id%010d", rng.Intn(n)))
		}
		cols, types = append(cols, sb.Finish()), append(types, arrow.String)
	}
	for c := 0; c < 3; c++ {
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		for i := 0; i < n; i++ {
			ib.Append(rng.Int63n(int64(n)))
		}
		cols, types = append(cols, ib.Finish()), append(types, arrow.Int64)
	}
	return cols, types
}

func encodeArena(enc *Encoder, cols []arrow.Array, n int) ([]byte, []uint32) {
	var arena []byte
	offsets := []uint32{0}
	for i := 0; i < n; i++ {
		arena = enc.AppendRowKey(arena, cols, i)
		offsets = append(offsets, uint32(len(arena)))
	}
	return arena, offsets
}

// BenchmarkDecodeKeys decodes 500 k packed keys of H2O q10's six mixed
// columns, the way count(DISTINCT)'s accumulator emits its values.
func BenchmarkDecodeKeys(b *testing.B) {
	const n = 500_000
	cols, types := mixedKeyCols(n)
	enc, _ := NewEncoder(types, nil)
	arena, offsets := encodeArena(enc, cols, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeKeys(n, len(arena), func(i int) []byte { return arena[offsets[i]:] }); err != nil {
			b.Fatal(err)
		}
	}
}
