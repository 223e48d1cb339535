package exec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"

	"gofusion/internal/arrow"
	"gofusion/internal/rowformat"
)

// rowKeys holds row-format keys packed back-to-back in one arena: key i is
// arena[offsets[i]:offsets[i+1]]. It is the key layout ORDER BY and window
// evaluation sort over (one allocation amortized over all rows, no per-row
// slice headers). Offsets are ints so the arena may grow past 4 GiB.
type rowKeys struct {
	arena   []byte
	offsets []int // len()+1 entries once a key was appended
}

func (k *rowKeys) len() int {
	if len(k.offsets) == 0 {
		return 0
	}
	return len(k.offsets) - 1
}

func (k *rowKeys) key(i int) []byte { return k.arena[k.offsets[i]:k.offsets[i+1]] }

// reset drops the keys but keeps the capacity.
func (k *rowKeys) reset() {
	k.arena = k.arena[:0]
	k.offsets = k.offsets[:0]
}

func (k *rowKeys) memUsage() int64 { return int64(cap(k.arena)) + 8*int64(cap(k.offsets)) }

// appendKey appends one already encoded key.
func (k *rowKeys) appendKey(key []byte) {
	if len(k.offsets) == 0 {
		k.offsets = append(k.offsets, 0)
	}
	k.arena = append(k.arena, key...)
	k.offsets = append(k.offsets, len(k.arena))
}

// appendRows encodes the first numRows rows of cols, one key per row.
func (k *rowKeys) appendRows(enc *rowformat.Encoder, cols []arrow.Array, numRows int) {
	if len(k.offsets) == 0 {
		k.offsets = append(k.offsets, 0)
	}
	for i := 0; i < numRows; i++ {
		k.arena = enc.AppendRowKey(k.arena, cols, i)
		k.offsets = append(k.offsets, len(k.arena))
	}
}

// keyRef is what the sort moves: the key's first 8 bytes as a big-endian
// integer (zero padded) and the row it belongs to. Most comparisons are
// decided by the prefix without touching the arena.
type keyRef struct {
	prefix uint64
	row    int32
}

func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// compareKeyTails orders two keys whose zero-padded prefixes are equal the
// way bytes.Compare orders the whole keys. A key shorter than the prefix
// that ties on it is a proper prefix of the other (or equal to it), so the
// lengths decide.
func compareKeyTails(a, b []byte) int {
	if len(a) < 8 || len(b) < 8 {
		return cmp.Compare(len(a), len(b))
	}
	return bytes.Compare(a[8:], b[8:])
}

// commonPrefixLen returns how many leading bytes every key shares.
func commonPrefixLen(k *rowKeys) int {
	if k.len() == 0 {
		return 0
	}
	first := k.key(0)
	shared := len(first)
	for i := 1; i < k.len() && shared > 0; i++ {
		key := k.key(i)
		if len(key) < shared {
			shared = len(key)
		}
		for j := 0; j < shared; j++ {
			if key[j] != first[j] {
				shared = j
				break
			}
		}
	}
	return shared
}

// sortRowKeys returns the row indices ordered by key bytes, equal keys in
// row order. The row tie-break makes the order total, so the unstable
// pattern-defeating quicksort behind slices.SortFunc yields exactly what a
// stable sort would. The prefix is taken after the bytes all keys share
// (the marker and leading zero bytes of a small integer key would
// otherwise fill it with nothing to tell rows apart).
func sortRowKeys(k *rowKeys) []int32 {
	n := k.len()
	skip := commonPrefixLen(k)
	refs := make([]keyRef, n)
	for i := range refs {
		refs[i] = keyRef{prefix: keyPrefix(k.key(i)[skip:]), row: int32(i)}
	}
	slices.SortFunc(refs, func(a, b keyRef) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := compareKeyTails(k.key(int(a.row))[skip:], k.key(int(b.row))[skip:]); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	order := make([]int32, n)
	for i, r := range refs {
		order[i] = r.row
	}
	return order
}
