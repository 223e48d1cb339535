package exec

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceOrder is what the kernel replaced: a stable index sort under
// bytes.Compare.
func referenceOrder(keys [][]byte) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0
	})
	return idx
}

func packKeys(keys [][]byte) *rowKeys {
	var k rowKeys
	for _, key := range keys {
		k.appendKey(key)
	}
	return &k
}

func TestSortRowKeysMatchesStableSort(t *testing.T) {
	fixed := map[string][][]byte{
		"no rows":                   {},
		"one row":                   {[]byte("x")},
		"two rows":                  {[]byte("b"), []byte("a")},
		"empty keys keep row order": {{}, {}, {}},
		"empty before non-empty":    {[]byte{0}, {}, []byte{0, 0}, {}},
		"short keys ordered by length when zero padded": {
			[]byte("ab\x00\x00"), []byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00\x00\x00\x00\x00\x00"), []byte("ab")},
		"shared 8-byte prefix decided by the tail": {
			[]byte("prefix00zz"), []byte("prefix00a"), []byte("prefix00"), []byte("prefix00zz"), []byte("prefix00ab")},
		"duplicates keep row order": {[]byte("dup-key-long-enough"), []byte("a"), []byte("dup-key-long-enough"), []byte("a"), []byte("dup-key-long-enough")},
	}
	for name, keys := range fixed {
		if got, want := sortRowKeys(packKeys(keys)), referenceOrder(keys); !slices.Equal(got, want) {
			t.Errorf("%s: order %v, want %v", name, got, want)
		}
	}

	rng := rand.New(rand.NewSource(42))
	alphabets := [][]byte{{0, 1}, {0, 0xff}, []byte("abc"), nil}
	for round := 0; round < 300; round++ {
		n := rng.Intn(200)
		alphabet := alphabets[rng.Intn(len(alphabets))]
		maxLen := 1 + rng.Intn(20)
		keys := make([][]byte, n)
		for i := range keys {
			key := make([]byte, rng.Intn(maxLen+1))
			for j := range key {
				if alphabet == nil {
					key[j] = byte(rng.Intn(256))
				} else {
					key[j] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			keys[i] = key
		}
		if got, want := sortRowKeys(packKeys(keys)), referenceOrder(keys); !slices.Equal(got, want) {
			t.Fatalf("round %d (n=%d maxLen=%d): order %v, want %v", round, n, maxLen, got, want)
		}
	}
}

func BenchmarkSortRowKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		// A window key: partition id then a descending float, 18 bytes.
		key := make([]byte, 18)
		key[0], key[9] = 1, 1
		key[7], key[8] = byte(rng.Intn(20)), byte(rng.Intn(256))
		rng.Read(key[10:])
		keys[i] = key
	}
	packed := packKeys(keys)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortRowKeys(packed)
		}
	})
	b.Run("sliceStable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceOrder(keys)
		}
	})
}
