package compute

import (
	"encoding/binary"
	"fmt"

	"gofusion/internal/arrow"
)

// maxListProbe is the longest literal list an IN set compares item by
// item; a longer one probes a hash set.
const maxListProbe = 8

// InSet is the literal list of `x [NOT] IN (...)` for one column type,
// built once when a plan is compiled. Eval reads the column's typed
// values: a short list compares each row with every item (strings by
// length first), a long one probes a hash set.
type InSet struct {
	t       *arrow.DataType
	negated bool
	hasNull bool           // the list holds a NULL item
	items   []arrow.Scalar // the items a value of t can equal, as t

	ints   inKeys[int64]   // integer-backed kinds, bit pattern as int64
	floats inKeys[float64] // float32 and float64
	strs   inKeys[string]
	heads  []strItem // strs.list split for the short-list compare
	// Booleans: which of TRUE and FALSE the list holds.
	hasTrue, hasFalse bool
}

// inKeys holds a list's keys, and a hash set of them when the list is
// long.
type inKeys[K comparable] struct {
	list []K
	set  map[K]struct{}
}

func newInKeys[K comparable](list []K) inKeys[K] {
	k := inKeys[K]{list: list}
	if len(list) > maxListProbe {
		k.set = make(map[K]struct{}, len(list))
		for _, v := range list {
			k.set[v] = struct{}{}
		}
	}
	return k
}

// NewInSet builds the set of items for a column of type t; ok is false
// when t has no typed probe, and the caller evaluates the list as ORed
// equalities. An item equals a value of t only if it converts to t and
// back unchanged, so one that does not (2.5 for an integer column, 300 for
// an int8 one) is dropped: no row can equal it. A NULL item is kept only as
// a flag.
func NewInSet(t *arrow.DataType, items []arrow.Scalar, negated bool) (set *InSet, ok bool) {
	k := physicalKind(t)
	if k == kindOther {
		return nil, false
	}
	s := &InSet{t: t, negated: negated}
	var ints []int64
	var floats []float64
	var strs []string
	for _, it := range items {
		if it.Null {
			s.hasNull = true
			continue
		}
		v, err := CastScalar(it, t)
		if err != nil || v.Null {
			continue
		}
		if !it.Type.Equal(t) {
			if back, err := CastScalar(v, it.Type); err != nil || !back.Equal(it) {
				continue
			}
		}
		s.items = append(s.items, v)
		switch k {
		case kindBool:
			s.hasTrue = s.hasTrue || v.AsBool()
			s.hasFalse = s.hasFalse || !v.AsBool()
		case kindF32, kindF64:
			floats = append(floats, v.AsFloat64())
		case kindStr:
			strs = append(strs, v.AsString())
		default:
			ints = append(ints, v.AsInt64())
		}
	}
	s.ints, s.floats, s.strs = newInKeys(ints), newInKeys(floats), newInKeys(strs)
	for _, v := range strs {
		s.heads = append(s.heads, newStrItem(v))
	}
	return s, true
}

// Items returns the non-NULL items a value of the set's type can equal,
// converted to that type.
func (s *InSet) Items() []arrow.Scalar { return s.items }

// Negated reports whether the set evaluates NOT IN.
func (s *InSet) Negated() bool { return s.negated }

// Eval evaluates `a [NOT] IN (items)` into buf (nil allocates): a slot
// equal to an item is TRUE (FALSE under NOT), a NULL slot is NULL, and
// any other slot is FALSE (TRUE under NOT), or NULL when the list holds a
// NULL item.
func (s *InSet) Eval(a arrow.Array, buf *Buf) (*arrow.BoolArray, error) {
	n := a.Len()
	if physicalKind(a.DataType()) != physicalKind(s.t) {
		return nil, fmt.Errorf("compute: IN list of %s probed with %s", s.t, a.DataType())
	}
	vals := boolBits(buf, n)
	switch physicalKind(s.t) {
	case kindI8:
		probeNum(a.(*arrow.Int8Array).Values(), &s.ints, vals)
	case kindI16:
		probeNum(a.(*arrow.Int16Array).Values(), &s.ints, vals)
	case kindI32:
		probeNum(a.(*arrow.Int32Array).Values(), &s.ints, vals)
	case kindI64:
		probeNum(a.(*arrow.Int64Array).Values(), &s.ints, vals)
	case kindU8:
		probeNum(a.(*arrow.Uint8Array).Values(), &s.ints, vals)
	case kindU16:
		probeNum(a.(*arrow.Uint16Array).Values(), &s.ints, vals)
	case kindU32:
		probeNum(a.(*arrow.Uint32Array).Values(), &s.ints, vals)
	case kindU64:
		probeNum(a.(*arrow.Uint64Array).Values(), &s.ints, vals)
	case kindF32:
		probeNum(a.(*arrow.Float32Array).Values(), &s.floats, vals)
	case kindF64:
		probeNum(a.(*arrow.Float64Array).Values(), &s.floats, vals)
	case kindStr:
		probeStr(a.(*arrow.StringArray), s.strs.set, s.heads, vals)
	case kindBool:
		x := a.(*arrow.BoolArray).ValuesBitmap()
		for q := range vals {
			if s.hasTrue {
				vals[q] |= x[q]
			}
			if s.hasFalse {
				vals[q] |= ^x[q]
			}
		}
		clearTail(vals, n)
	}
	valid := copyValidity(buf, a.Validity(), n)
	if s.hasNull {
		if valid == nil {
			valid = validBits(buf, n)
			copy(valid, vals)
		} else {
			for q := range vals {
				valid[q] &= vals[q]
			}
		}
	}
	if s.negated {
		for q := range vals {
			vals[q] = ^vals[q]
		}
		clearTail(vals, n)
	}
	return arrow.NewBool(vals, valid, n), nil
}

// probeNum stores whether each value of vals is in k into out, 64 results
// to a word.
func probeNum[T orderedNum, K int64 | float64](vals []T, k *inKeys[K], out arrow.Bitmap) {
	for i := 0; i < len(vals); i += 64 {
		x := vals[i:min(i+64, len(vals))]
		var w uint64
		if k.set != nil {
			for j, v := range x {
				_, ok := k.set[K(v)]
				w |= b2u(ok) << (j & 63)
			}
		} else {
			for j, v := range x {
				kv, hit := K(v), uint64(0)
				for _, it := range k.list {
					hit |= b2u(kv == it)
				}
				w |= hit << (j & 63)
			}
		}
		storeBits(out, i, len(x), w)
	}
}

// strItem is a string split for a compare that rejects most rows on
// integers: its length, its first eight bytes as a word, then the rest.
type strItem struct {
	n    int
	head uint64
	rest string
}

func newStrItem(s string) strItem {
	return strItem{n: len(s), head: head8([]byte(s)), rest: s[min(8, len(s)):]}
}

// eq is 1 when string [lo, hi) of data, whose headAt is h, equals the
// item, else 0. Only an item longer than eight bytes whose length and head
// match compares bytes.
func (it *strItem) eq(h uint64, data []byte, lo, hi int32) uint64 {
	e := b2u(it.head == h) & b2u(it.n == int(hi-lo))
	if it.n > 8 && e != 0 {
		e = b2u(string(data[lo+8:hi]) == it.rest)
	}
	return e
}

// head8 returns the first eight bytes of b as a little-endian word,
// zero-padded when b is shorter.
func head8(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// headAt is head8 of string [lo, hi) of data: one load and a mask unless
// the string ends within eight bytes of the buffer's end.
func headAt(data []byte, lo, hi int32) uint64 {
	if int(lo)+8 > len(data) {
		return head8(data[lo:hi])
	}
	return binary.LittleEndian.Uint64(data[lo:]) & (^uint64(0) >> (64 - 8*min(hi-lo, 8)))
}

// probeStr stores whether each string of a is in the list into out, 64
// results to a word: through set when the list is long, else against
// each item.
func probeStr(a *arrow.StringArray, set map[string]struct{}, items []strItem, out arrow.Bitmap) {
	off, data := a.Offsets(), a.Data()
	n := a.Len()
	for i := 0; i < n; i += 64 {
		m := min(64, n-i)
		var w uint64
		for j := 0; j < m; j++ {
			lo, hi := off[i+j], off[i+j+1]
			var hit uint64
			if set != nil {
				_, ok := set[string(data[lo:hi])]
				hit = b2u(ok)
			} else {
				h := headAt(data, lo, hi)
				for k := range items {
					hit |= items[k].eq(h, data, lo, hi)
				}
			}
			w |= hit << j
		}
		storeBits(out, i, m, w)
	}
}
