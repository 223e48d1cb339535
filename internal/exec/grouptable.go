package exec

import (
	"math"
	"slices"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// groupTable assigns dense group ids to rows of key columns. It is the
// shared grouping structure behind hash aggregation, the hash-join
// build/probe maps and window PARTITION BY, and it deliberately mirrors
// the paper's Section 6.3 design: rows are hashed batch-at-a-time through
// the compute hash kernels, group ids live in an open-addressing
// power-of-two table of (hash, id) slots, and the full key is compared
// only on a 64-bit hash match. Growth rehashes the stored slot hashes —
// keys are never touched.
//
// Who hashes: assign and lookupInto hash the rows themselves;
// assignHashed and lookupHashed take the hashes from the caller. A hash
// exchange (RepartitionExec) computes the same hashes with the same
// kernels to route rows and sends them with each batch, so the final
// aggregate and both sides of a partitioned hash join, whose keys are the
// exchange's, call the Hashed forms and no row is hashed twice on the way
// through an exchange.
//
// Keys live in a key store: one typed keyColumn per key column, group g's
// value at position g (keystore.go). A probe row is never encoded; a new
// group appends its row's values, and groupColumns hands the stored
// vectors out as arrays without a copy. Two probe loops run on it:
//
//   - a single integer-backed key column (int8..uint64, date32,
//     timestamp, decimal) probes row by row, comparing the stored value
//     inline (fixedKeys.assignOne / lookupOne);
//   - every other shape collects the batch's (row, group) pairs whose
//     hashes matched and compares them column at a time, one type switch
//     per column per batch, as DataFusion's GroupValuesColumn does.
//
// The key columns are reserved whenever the slot table is sized — it
// bounds how many groups can exist before the next grow — so the
// steady-state assign path allocates nothing and columns move only when
// the slot table doubles (string bytes at least double when a key does not
// fit). Arrays groupColumns returned alias the store: appending groups
// never writes inside them, and reset gives the columns fresh buffers
// instead of truncating shared ones.
type groupTable struct {
	keys []keyColumn
	one  oneKey // keys[0] when it is the only key and integer-backed

	// Open-addressing slots, power-of-two sized. slotGroup holds group
	// id + 1 so the zero value means empty.
	slotHash  []uint64
	slotGroup []uint32

	nGroups int

	ls lookupScratch // assign's per-batch scratch
}

// oneKey is the integer fast path, implemented by fixedKeys.
type oneKey interface {
	assignOne(t *groupTable, a arrow.Array, hashes []uint64, out []uint32)
	lookupOne(t *groupTable, a arrow.Array, hashes []uint64, out []int32)
}

// fastPathType reports whether a single key of this type runs on the
// integer fast path. Floats, booleans and strings compare candidate pairs.
func fastPathType(t *arrow.DataType) bool {
	switch t.ID {
	case arrow.INT8, arrow.INT16, arrow.INT32, arrow.INT64,
		arrow.UINT8, arrow.UINT16, arrow.UINT32, arrow.UINT64,
		arrow.DATE32, arrow.TIMESTAMP, arrow.DECIMAL:
		return true
	}
	return false
}

func newGroupTable(types []*arrow.DataType) (*groupTable, error) {
	return newGroupTableSized(types, 0)
}

// newGroupTableSized pre-sizes the slot table for an estimated number of
// distinct keys (0 means the default), avoiding rehash cascades on large
// builds without over-allocating for small ones.
func newGroupTableSized(types []*arrow.DataType, estKeys int) (*groupTable, error) {
	t := &groupTable{keys: make([]keyColumn, len(types))}
	for c, dt := range types {
		k, err := newKeyColumn(dt)
		if err != nil {
			return nil, err
		}
		t.keys[c] = k
	}
	if len(types) == 1 && fastPathType(types[0]) {
		t.one = t.keys[0].(oneKey)
	}
	slots := 64
	for slots*3 < estKeys*4 { // keep load factor under 3/4 at estKeys
		slots *= 2
	}
	t.slotHash = make([]uint64, slots)
	t.slotGroup = make([]uint32, slots)
	t.reserveGroups()
	return t, nil
}

// reserveGroups sizes the key columns for every group the slot table can
// hold before it next grows (3/4 load).
func (t *groupTable) reserveGroups() {
	n := len(t.slotGroup) * 3 / 4
	for _, k := range t.keys {
		k.reserve(n)
	}
}

func (t *groupTable) numGroups() int { return t.nGroups }

// memUsage is the table's heap footprint for memory accounting: the slot
// table and the key columns at their reserved capacity.
func (t *groupTable) memUsage() int64 {
	n := int64(len(t.slotHash)) * 12 // slotHash + slotGroup
	for _, k := range t.keys {
		n += k.memUsage()
	}
	return n
}

// reset clears all groups, keeping the slot table's size (early partial
// flushes, ordered-aggregate restarts and spills churn the table). Every
// reset follows an emit, so the key columns get fresh buffers: arrays
// groupColumns returned still alias the old ones downstream.
func (t *groupTable) reset() {
	clear(t.slotGroup)
	t.nGroups = 0
	for _, k := range t.keys {
		k.release()
	}
	t.reserveGroups()
}

// grow doubles the slot table, re-inserting the stored hashes.
func (t *groupTable) grow() {
	t.rehash(2*len(t.slotGroup), math.MaxUint32)
	t.reserveGroups()
}

// rehash rebuilds the slot table at size slots from the stored hashes of
// the groups with ids below keep.
func (t *groupTable) rehash(size int, keep uint32) {
	oldHash, oldGroup := t.slotHash, t.slotGroup
	t.slotHash = make([]uint64, size)
	t.slotGroup = make([]uint32, size)
	mask := uint64(size - 1)
	for i, g := range oldGroup {
		if g == 0 || g > keep {
			continue
		}
		h := oldHash[i]
		slot := h & mask
		for t.slotGroup[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slotHash[slot] = h
		t.slotGroup[slot] = g
	}
}

// insert claims an empty slot for a new group and returns its id; the
// caller stores the key.
func (t *groupTable) insert(slot, h uint64) uint32 {
	gid := uint32(t.nGroups)
	t.slotHash[slot] = h
	t.slotGroup[slot] = gid + 1
	t.nGroups++
	return gid
}

// assign maps each of the first numRows rows of the key columns to a
// dense group id, creating groups as needed. out is reused when it has
// capacity. It fails only when a string column's keys would pass 2 GiB,
// and then assigns none of the batch's rows.
func (t *groupTable) assign(cols []arrow.Array, numRows int, out []uint32) ([]uint32, error) {
	t.ls.hashBuf = compute.HashBatch(cols, numRows, t.ls.hashBuf)
	return t.assignHashed(cols, numRows, t.ls.hashBuf, out)
}

// assignHashed is assign with caller-provided row hashes (which must come
// from compute.HashBatch over the same columns). Group ids follow the
// order in which their keys first appear.
func (t *groupTable) assignHashed(cols []arrow.Array, numRows int, hashes []uint64, out []uint32) ([]uint32, error) {
	if cap(out) < numRows {
		out = make([]uint32, numRows)
	} else {
		out = out[:numRows]
	}
	if t.one != nil {
		t.one.assignOne(t, cols[0], hashes, out)
		return out, nil
	}
	ls := &t.ls
	before := t.nGroups
	rows, groups, newRows := ls.rows[:0], ls.groups[:0], ls.newRows[:0]
	for i := 0; i < numRows; i++ {
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
				newRows = append(newRows, int32(i))
				break
			}
			if t.slotHash[slot] == h {
				out[i] = g - 1
				rows = append(rows, int32(i))
				groups = append(groups, g-1)
				break
			}
			slot = (slot + 1) & mask
		}
	}
	ls.rows, ls.groups, ls.newRows = rows, groups, newRows
	for c, k := range t.keys {
		if err := k.appendRows(cols[c], ls.newRows); err != nil {
			t.rollback(before)
			return out, err
		}
	}
	if t.keysEqual(cols, ls) {
		return out, nil
	}
	// A 64-bit hash matched a different key. Undo the batch and redo it a
	// row at a time, so group ids keep first-appearance order.
	t.rollback(before)
	for i := 0; i < numRows; i++ {
		var err error
		if out[i], err = t.assignRow(cols, i, hashes[i]); err != nil {
			t.rollback(before)
			return out, err
		}
	}
	return out, nil
}

// rollback drops the groups from keep on: their slots and their keys.
func (t *groupTable) rollback(keep int) {
	t.rehash(len(t.slotGroup), uint32(keep))
	for _, k := range t.keys {
		k.truncate(keep)
	}
	t.nGroups = keep
}

// keysEqual compares every candidate pair in ls, column at a time, leaving
// the per-pair outcome in ls.eq; it reports whether all pairs matched.
func (t *groupTable) keysEqual(cols []arrow.Array, ls *lookupScratch) bool {
	n := len(ls.rows)
	if cap(ls.eq) < n {
		ls.eq = make([]bool, n)
	}
	ls.eq = ls.eq[:n]
	for j := range ls.eq {
		ls.eq[j] = true
	}
	for c, k := range t.keys {
		k.equalRows(cols[c], ls.rows, ls.groups, ls.eq)
	}
	return !slices.Contains(ls.eq, false)
}

// rowEquals reports whether row i of cols holds group g's key.
func (t *groupTable) rowEquals(cols []arrow.Array, i int, g uint32) bool {
	eq := []bool{true}
	for c, k := range t.keys {
		k.equalRows(cols[c], []int32{int32(i)}, []uint32{g}, eq)
	}
	return eq[0]
}

// assignRow assigns one row, comparing keys at every hash match.
func (t *groupTable) assignRow(cols []arrow.Array, i int, h uint64) (uint32, error) {
	if (t.nGroups+1)*4 > len(t.slotGroup)*3 {
		t.grow()
	}
	mask := uint64(len(t.slotGroup) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		g := t.slotGroup[slot]
		if g == 0 {
			gid := t.insert(slot, h)
			for c, k := range t.keys {
				if err := k.appendRows(cols[c], []int32{int32(i)}); err != nil {
					return 0, err
				}
			}
			return gid, nil
		}
		if t.slotHash[slot] == h && t.rowEquals(cols, i, g-1) {
			return g - 1, nil
		}
	}
}

// lookupScratch holds the per-caller reusable buffers for lookupInto (and
// the table's own for assign), so concurrent probers can share one
// read-only table (CollectLeft joins).
type lookupScratch struct {
	hashBuf []uint64
	// Candidate pairs: row rows[j] hashed like group groups[j].
	rows   []int32
	groups []uint32
	eq     []bool
	// assign only: the rows that created a group, in order.
	newRows []int32
}

// lookupInto resolves each row's group id without inserting: -1 when the
// key is absent. Rows with NULL in any key column also get -1 (join
// semantics: NULL keys never match). The table itself is only read, all
// mutable scratch lives in ls.
func (t *groupTable) lookupInto(cols []arrow.Array, numRows int, ls *lookupScratch, out []int32) []int32 {
	ls.hashBuf = compute.HashBatch(cols, numRows, ls.hashBuf)
	return t.lookupHashed(cols, numRows, ls.hashBuf, ls, out)
}

// lookupHashed is lookupInto with caller-provided row hashes.
func (t *groupTable) lookupHashed(cols []arrow.Array, numRows int, hashes []uint64, ls *lookupScratch, out []int32) []int32 {
	if cap(out) < numRows {
		out = make([]int32, numRows)
	} else {
		out = out[:numRows]
	}
	for i := range out {
		out[i] = -1
	}
	if t.nGroups == 0 {
		return out
	}
	if t.one != nil {
		t.one.lookupOne(t, cols[0], hashes, out)
		return out
	}
	anyNulls := false
	for _, c := range cols {
		anyNulls = anyNulls || c.NullCount() > 0
	}
	mask := uint64(len(t.slotGroup) - 1)
	rows, groups := ls.rows[:0], ls.groups[:0]
probe:
	for i := 0; i < numRows; i++ {
		if anyNulls {
			for _, c := range cols {
				if c.IsNull(i) {
					continue probe
				}
			}
		}
		h := hashes[i]
		for slot := h & mask; t.slotGroup[slot] != 0; slot = (slot + 1) & mask {
			if t.slotHash[slot] == h {
				rows = append(rows, int32(i))
				groups = append(groups, t.slotGroup[slot]-1)
				break
			}
		}
	}
	ls.rows, ls.groups = rows, groups
	t.keysEqual(cols, ls)
	for j, r := range ls.rows {
		if ls.eq[j] {
			out[r] = int32(ls.groups[j])
		} else {
			out[r] = t.lookupRow(cols, int(r), hashes[r])
		}
	}
	return out
}

// lookupRow looks one row up, comparing keys at every hash match.
func (t *groupTable) lookupRow(cols []arrow.Array, i int, h uint64) int32 {
	mask := uint64(len(t.slotGroup) - 1)
	for slot := h & mask; t.slotGroup[slot] != 0; slot = (slot + 1) & mask {
		if g := t.slotGroup[slot]; t.slotHash[slot] == h && t.rowEquals(cols, i, g-1) {
			return int32(g - 1)
		}
	}
	return -1
}

// groupColumns returns the group keys as arrays, in group-id order. The
// arrays alias the key store.
func (t *groupTable) groupColumns() []arrow.Array {
	cols := make([]arrow.Array, len(t.keys))
	for c, k := range t.keys {
		cols[c] = k.array(t.nGroups)
	}
	return cols
}
