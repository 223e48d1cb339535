package exec

import (
	"bytes"
	"fmt"
	"math"

	"gofusion/internal/arrow"
)

// keyColumn is one GROUP BY / join-key column of a groupTable's key store:
// group g's key value sits at position g, in the column's own type.
// Columns are filled in group-id order and never reordered.
//
// Input arrays are the column's declared physical type or, for an all-NULL
// column of any declared type, *arrow.NullArray.
type keyColumn interface {
	// reserve makes room for n groups, so appends up to n groups do not
	// allocate.
	reserve(n int)
	// appendRows stores the given rows of a as the keys of the next
	// len(rows) groups. On an error it has stored none of them.
	appendRows(a arrow.Array, rows []int32) error
	// equalRows clears eq[j] unless row rows[j] of a holds the key of
	// group groups[j]. NULL equals NULL; -0.0 equals +0.0 and NaN equals
	// NaN.
	equalRows(a arrow.Array, rows []int32, groups []uint32, eq []bool)
	// array returns the keys of the first n groups. It aliases the
	// column's buffers: only positions at or past n may be written after.
	array(n int) arrow.Array
	// memUsage is the column's heap footprint at capacity.
	memUsage() int64
	// truncate drops the keys of groups n and up.
	truncate(n int)
	// release drops the buffers, leaving arrays returned earlier intact;
	// reserve allocates fresh ones.
	release()
}

// newKeyColumn builds the key column for one key type.
func newKeyColumn(dt *arrow.DataType) (keyColumn, error) {
	switch dt.ID {
	case arrow.INT8:
		return &fixedKeys[int8]{dt: dt}, nil
	case arrow.INT16:
		return &fixedKeys[int16]{dt: dt}, nil
	case arrow.INT32, arrow.DATE32:
		return &fixedKeys[int32]{dt: dt}, nil
	case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
		return &fixedKeys[int64]{dt: dt}, nil
	case arrow.UINT8:
		return &fixedKeys[uint8]{dt: dt}, nil
	case arrow.UINT16:
		return &fixedKeys[uint16]{dt: dt}, nil
	case arrow.UINT32:
		return &fixedKeys[uint32]{dt: dt}, nil
	case arrow.UINT64:
		return &fixedKeys[uint64]{dt: dt}, nil
	case arrow.FLOAT32:
		return &floatKeys[float32]{fixedKeys[float32]{dt: dt}}, nil
	case arrow.FLOAT64:
		return &floatKeys[float64]{fixedKeys[float64]{dt: dt}}, nil
	case arrow.BOOL:
		return &boolKeys{fixedKeys[uint8]{dt: dt}}, nil
	case arrow.STRING, arrow.BINARY:
		return &bytesKeys{dt: dt}, nil
	case arrow.NULL:
		return nullKeys{}, nil
	}
	return nil, fmt.Errorf("exec: unsupported group key type %s", dt)
}

func isNullArray(a arrow.Array) bool {
	_, ok := a.(*arrow.NullArray)
	return ok
}

// keyNulls is a key column's validity: bit g clear means group g's key is
// NULL. bits stays nil until the column stores its first NULL.
type keyNulls struct{ bits arrow.Bitmap }

func (v *keyNulls) isNull(g uint32) bool { return v.bits != nil && !v.bits.Get(int(g)) }

// put records whether group g's key is valid; capacity is the number of
// groups the column has room for.
func (v *keyNulls) put(g int, valid bool, capacity int) {
	if v.bits == nil {
		if valid {
			return
		}
		v.bits = arrow.NewBitmap(capacity)
		v.bits.SetRange(0, g)
	}
	v.bits.Put(g, valid)
}

// setRange marks groups [from, to) valid.
func (v *keyNulls) setRange(from, to int) {
	if v.bits != nil {
		v.bits.SetRange(from, to)
	}
}

func (v *keyNulls) reserve(n int) {
	if v.bits != nil && len(v.bits)*8 < n {
		v.bits = append(v.bits, make(arrow.Bitmap, (n+7)/8-len(v.bits))...)
	}
}

// bitmap copies the first n bits out: bits past n may still change.
func (v *keyNulls) bitmap(n int) arrow.Bitmap {
	if v.bits == nil {
		return nil
	}
	b := arrow.NewBitmap(n)
	b.CopyBits(0, v.bits, 0, n)
	return b
}

// fixedKeys stores fixed-width keys as a []T the size of the slot table's
// group capacity.
type fixedKeys[T arrow.Number] struct {
	dt   *arrow.DataType
	vals []T
	keyNulls
}

func (k *fixedKeys[T]) reserve(n int) {
	if cap(k.vals) < n {
		k.vals = append(make([]T, 0, n), k.vals...)
	}
	k.keyNulls.reserve(n)
}

func (k *fixedKeys[T]) push(v T, valid bool) {
	k.vals = append(k.vals, v)
	k.put(len(k.vals)-1, valid, cap(k.vals))
}

func (k *fixedKeys[T]) appendRows(a arrow.Array, rows []int32) error {
	if isNullArray(a) {
		for range rows {
			k.push(0, false)
		}
		return nil
	}
	arr := a.(*arrow.NumericArray[T])
	vals := arr.Values()
	if arr.NullCount() == 0 {
		from, stored := len(k.vals), k.vals
		for _, r := range rows {
			stored = append(stored, vals[r])
		}
		k.vals = stored
		k.setRange(from, len(stored))
		return nil
	}
	for _, r := range rows {
		if arr.IsNull(int(r)) {
			k.push(0, false)
		} else {
			k.push(vals[r], true)
		}
	}
	return nil
}

func (k *fixedKeys[T]) equalRows(a arrow.Array, rows []int32, groups []uint32, eq []bool) {
	if isNullArray(a) {
		for j, g := range groups {
			eq[j] = eq[j] && k.isNull(g)
		}
		return
	}
	arr := a.(*arrow.NumericArray[T])
	vals, stored := arr.Values(), k.vals
	if arr.NullCount() == 0 && k.bits == nil {
		for j, r := range rows {
			eq[j] = eq[j] && vals[r] == stored[groups[j]]
		}
		return
	}
	for j, r := range rows {
		g := groups[j]
		null := arr.IsNull(int(r))
		eq[j] = eq[j] && null == k.isNull(g) && (null || vals[r] == stored[g])
	}
}

func (k *fixedKeys[T]) array(n int) arrow.Array {
	return arrow.NewNumeric(k.dt, k.vals[:n:n], k.bitmap(n))
}

func (k *fixedKeys[T]) memUsage() int64 {
	return int64(cap(k.vals))*int64(k.dt.BitWidth()/8) + int64(cap(k.bits))
}

func (k *fixedKeys[T]) truncate(n int) { k.vals = k.vals[:n] }

func (k *fixedKeys[T]) release() { k.vals, k.bits = nil, nil }

// assignOne is groupTable.assign for a table whose only key column is k,
// an integer-backed one: the probe compares values inline instead of
// collecting candidate pairs. NULL keys hash to one value and form one
// group like any other key.
func (k *fixedKeys[T]) assignOne(t *groupTable, a arrow.Array, hashes []uint64, out []uint32) {
	var arr *arrow.NumericArray[T]
	var vals []T
	if !isNullArray(a) {
		arr = a.(*arrow.NumericArray[T])
		vals = arr.Values()
	}
	nulls := arr == nil || arr.NullCount() > 0
	for i := range out {
		var v T
		null := nulls && (arr == nil || arr.IsNull(i))
		if !null {
			v = vals[i]
		}
		if (t.nGroups+1)*4 > len(t.slotGroup)*3 {
			t.grow()
		}
		h := hashes[i]
		mask := uint64(len(t.slotGroup) - 1)
		slot := h & mask
		for {
			g := t.slotGroup[slot]
			if g == 0 {
				out[i] = t.insert(slot, h)
				k.push(v, !null)
				break
			}
			if t.slotHash[slot] == h && k.vals[g-1] == v && k.isNull(g-1) == null {
				out[i] = g - 1
				break
			}
			slot = (slot + 1) & mask
		}
	}
}

// lookupOne is groupTable.lookupInto for a table whose only key column is
// k, an integer-backed one. NULL rows match nothing.
func (k *fixedKeys[T]) lookupOne(t *groupTable, a arrow.Array, hashes []uint64, out []int32) {
	if isNullArray(a) {
		return
	}
	arr := a.(*arrow.NumericArray[T])
	vals := arr.Values()
	mask := uint64(len(t.slotGroup) - 1)
	for i := range out {
		if arr.IsNull(i) {
			continue
		}
		h := hashes[i]
		slot := h & mask
		for {
			g := t.slotGroup[slot]
			if g == 0 {
				break
			}
			if t.slotHash[slot] == h && k.vals[g-1] == vals[i] && !k.isNull(g-1) {
				out[i] = int32(g - 1)
				break
			}
			slot = (slot + 1) & mask
		}
	}
}

// floatKeys stores float keys canonically: +0.0 for either zero and one
// NaN for every NaN, so an emitted group shows one value for its key.
type floatKeys[T float32 | float64] struct{ fixedKeys[T] }

// canonFloat is the float key identity: -0.0 is +0.0 and every NaN is one
// NaN.
func canonFloat[T float32 | float64](v T) T {
	if v != v {
		return T(math.Float64frombits(0x7FF8000000000000))
	}
	if v == 0 {
		return 0
	}
	return v
}

func (k *floatKeys[T]) appendRows(a arrow.Array, rows []int32) error {
	from := len(k.vals)
	err := k.fixedKeys.appendRows(a, rows)
	for g := from; g < len(k.vals); g++ {
		k.vals[g] = canonFloat(k.vals[g])
	}
	return err
}

func (k *floatKeys[T]) equalRows(a arrow.Array, rows []int32, groups []uint32, eq []bool) {
	if isNullArray(a) {
		k.fixedKeys.equalRows(a, rows, groups, eq)
		return
	}
	arr := a.(*arrow.NumericArray[T])
	vals, stored := arr.Values(), k.vals
	for j, r := range rows {
		g := groups[j]
		x, y := vals[r], stored[g]
		null := arr.IsNull(int(r))
		eq[j] = eq[j] && null == k.isNull(g) && (null || x == y || x != x && y != y)
	}
}

// boolKeys stores booleans one byte each, 0 or 1.
type boolKeys struct{ fixedKeys[uint8] }

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func (k *boolKeys) appendRows(a arrow.Array, rows []int32) error {
	if isNullArray(a) {
		return k.fixedKeys.appendRows(a, rows)
	}
	arr := a.(*arrow.BoolArray)
	for _, r := range rows {
		k.push(b2u8(arr.Value(int(r))), arr.IsValid(int(r)))
	}
	return nil
}

func (k *boolKeys) equalRows(a arrow.Array, rows []int32, groups []uint32, eq []bool) {
	if isNullArray(a) {
		k.fixedKeys.equalRows(a, rows, groups, eq)
		return
	}
	arr := a.(*arrow.BoolArray)
	for j, r := range rows {
		g := groups[j]
		null := arr.IsNull(int(r))
		eq[j] = eq[j] && null == k.isNull(g) && (null || b2u8(arr.Value(int(r))) == k.vals[g])
	}
}

// array packs the bytes into a bitmap: boolean keys copy on emit.
func (k *boolKeys) array(n int) arrow.Array {
	bits := arrow.NewBitmap(n)
	for g, v := range k.vals[:n] {
		if v == 1 {
			bits.Set(g)
		}
	}
	return arrow.NewBool(bits, k.bitmap(n), n)
}

// bytesKeys stores STRING / BINARY keys as Arrow offsets plus bytes, so
// they emit as a StringArray without a copy. Offsets are reserved like
// fixed-width values; the byte buffer, whose size no group count bounds,
// at least doubles whenever a key does not fit.
type bytesKeys struct {
	dt      *arrow.DataType
	offsets []int32 // group g's key is data[offsets[g]:offsets[g+1]]
	data    []byte
	keyNulls
}

func (k *bytesKeys) reserve(n int) {
	if cap(k.offsets) < n+1 {
		k.offsets = append(make([]int32, 0, n+1), k.offsets...)
	}
	if len(k.offsets) == 0 {
		k.offsets = append(k.offsets, 0)
	}
	k.keyNulls.reserve(n)
}

// growData makes room for extra more bytes. Offsets are int32, as in every
// StringArray, so one column holds at most 2 GiB of keys.
func (k *bytesKeys) growData(extra int) error {
	need := len(k.data) + extra
	if need <= cap(k.data) {
		return nil
	}
	if need > math.MaxInt32 {
		return fmt.Errorf("exec: %s group keys of one column exceed 2 GiB", k.dt)
	}
	k.data = append(make([]byte, 0, min(max(need, 2*cap(k.data), 512), math.MaxInt32)), k.data...)
	return nil
}

func (k *bytesKeys) appendRows(a arrow.Array, rows []int32) error {
	if isNullArray(a) {
		for range rows {
			k.offsets = append(k.offsets, int32(len(k.data)))
			k.put(len(k.offsets)-2, false, cap(k.offsets)-1)
		}
		return nil
	}
	arr := a.(*arrow.StringArray)
	off, data := arr.Offsets(), arr.Data()
	total := 0
	for _, r := range rows {
		total += int(off[r+1] - off[r])
	}
	if err := k.growData(total); err != nil {
		return err
	}
	from, nulls := len(k.offsets)-1, arr.NullCount() > 0
	stored, offsets := k.data, k.offsets
	for _, r := range rows {
		valid := !nulls || arr.IsValid(int(r))
		if valid {
			stored = append(stored, data[off[r]:off[r+1]]...)
		}
		offsets = append(offsets, int32(len(stored)))
		if nulls {
			k.put(len(offsets)-2, valid, cap(offsets)-1)
		}
	}
	k.data, k.offsets = stored, offsets
	if !nulls {
		k.setRange(from, len(offsets)-1)
	}
	return nil
}

func (k *bytesKeys) equalRows(a arrow.Array, rows []int32, groups []uint32, eq []bool) {
	if isNullArray(a) {
		for j, g := range groups {
			eq[j] = eq[j] && k.isNull(g)
		}
		return
	}
	arr := a.(*arrow.StringArray)
	off, data := arr.Offsets(), arr.Data()
	nulls := arr.NullCount() > 0 || k.bits != nil
	for j, r := range rows {
		if !eq[j] {
			continue
		}
		g := groups[j]
		if nulls {
			if null := arr.IsNull(int(r)); null || k.isNull(g) {
				eq[j] = null && k.isNull(g)
				continue
			}
		}
		eq[j] = bytes.Equal(data[off[r]:off[r+1]], k.data[k.offsets[g]:k.offsets[g+1]])
	}
}

func (k *bytesKeys) array(n int) arrow.Array {
	end := k.offsets[n]
	return arrow.NewString(k.dt, k.offsets[:n+1:n+1], k.data[:end:end], k.bitmap(n))
}

func (k *bytesKeys) memUsage() int64 {
	return 4*int64(cap(k.offsets)) + int64(cap(k.data)) + int64(cap(k.bits))
}

func (k *bytesKeys) truncate(n int) {
	k.offsets = k.offsets[:n+1]
	k.data = k.data[:k.offsets[n]]
}

func (k *bytesKeys) release() { k.offsets, k.data, k.bits = nil, nil, nil }

// nullKeys is a NULL-typed key column: every key is NULL, so there is
// nothing to store or compare.
type nullKeys struct{}

func (nullKeys) reserve(int)                                      {}
func (nullKeys) appendRows(arrow.Array, []int32) error            { return nil }
func (nullKeys) equalRows(arrow.Array, []int32, []uint32, []bool) {}
func (nullKeys) array(n int) arrow.Array                          { return arrow.NewNull(n) }
func (nullKeys) memUsage() int64                                  { return 0 }
func (nullKeys) truncate(int)                                     {}
func (nullKeys) release()                                         {}
