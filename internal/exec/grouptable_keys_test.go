package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gofusion/internal/arrow"
)

// keyGen draws one key column of a type from a small pool of values that
// includes the type's extremes, so batches repeat keys.
type keyGen struct {
	dt  *arrow.DataType
	gen func(rng *rand.Rand, n int, null func() bool) arrow.Array
}

func numKeyGen[T arrow.Number](dt *arrow.DataType, pool ...T) keyGen {
	return keyGen{dt, func(rng *rand.Rand, n int, null func() bool) arrow.Array {
		b := arrow.NewNumericBuilder[T](dt)
		for i := 0; i < n; i++ {
			if null() {
				b.AppendNull()
			} else {
				b.Append(pool[rng.Intn(len(pool))])
			}
		}
		return b.Finish()
	}}
}

// hugeKey is a key longer than 1 MiB; with huge set it goes into row 3 of
// every batch rather than the pool, so batches stay small.
var hugeKey = strings.Repeat("h\x00", 1<<19) + "tail"

func bytesKeyGen(dt *arrow.DataType, huge bool) keyGen {
	pool := []string{"", "\x00", "a\x00b", "a", "ab", "\x00\x00", "key-1", "key-2"}
	return keyGen{dt, func(rng *rand.Rand, n int, null func() bool) arrow.Array {
		b := arrow.NewStringBuilder(dt)
		for i := 0; i < n; i++ {
			switch {
			case null():
				b.AppendNull()
			case huge && i == 3:
				b.Append(hugeKey[:len(hugeKey)-rng.Intn(2)])
			default:
				b.Append(pool[rng.Intn(len(pool))])
			}
		}
		return b.Finish()
	}}
}

// negZero32 and negZero64 are -0.0; nan32b and nan64b are NaNs with other
// bits than the ones math.NaN produces.
var (
	negZero32 = float32(math.Copysign(0, -1))
	negZero64 = math.Copysign(0, -1)
	nan32b    = math.Float32frombits(0xFFC00001)
	nan64b    = math.Float64frombits(0xFFF8000000000123)
)

func keyTypeGens() []keyGen {
	return []keyGen{
		{arrow.Boolean, func(rng *rand.Rand, n int, null func() bool) arrow.Array {
			b := arrow.NewBoolBuilder()
			for i := 0; i < n; i++ {
				if null() {
					b.AppendNull()
				} else {
					b.Append(rng.Intn(2) == 0)
				}
			}
			return b.Finish()
		}},
		numKeyGen[int8](arrow.Int8, math.MinInt8, math.MaxInt8, 0, -1, 1),
		numKeyGen[int16](arrow.Int16, math.MinInt16, math.MaxInt16, 0, -1),
		numKeyGen[int32](arrow.Int32, math.MinInt32, math.MaxInt32, 0, 7),
		numKeyGen[int64](arrow.Int64, math.MinInt64, math.MaxInt64, 0, -7),
		numKeyGen[uint8](arrow.Uint8, 0, math.MaxUint8, 1),
		numKeyGen[uint16](arrow.Uint16, 0, math.MaxUint16, 1),
		numKeyGen[uint32](arrow.Uint32, 0, math.MaxUint32, 1),
		numKeyGen[uint64](arrow.Uint64, 0, math.MaxUint64, 1<<63, 1),
		numKeyGen[float32](arrow.Float32, 0, negZero32, float32(math.NaN()), nan32b,
			float32(math.Inf(1)), float32(math.Inf(-1)), 1.5, -math.MaxFloat32, math.SmallestNonzeroFloat32),
		numKeyGen[float64](arrow.Float64, 0, negZero64, math.NaN(), nan64b,
			math.Inf(1), math.Inf(-1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64),
		numKeyGen[int32](arrow.Date32, math.MinInt32, 0, 19000, math.MaxInt32),
		numKeyGen[int64](arrow.Timestamp, math.MinInt64, 0, 1_700_000_000_000_000, math.MaxInt64),
		numKeyGen[int64](arrow.Decimal(18, 2), -999_999_999_999_999_999, 0, 12345, 999_999_999_999_999_999),
		bytesKeyGen(arrow.String, true),
		bytesKeyGen(arrow.Binary, true),
		{arrow.Null, func(_ *rand.Rand, n int, _ func() bool) arrow.Array { return arrow.NewNull(n) }},
	}
}

// refKeyCell renders one key cell under the engine's key identity: NULL,
// -0.0 = +0.0, one NaN.
func refKeyCell(a arrow.Array, i int) string {
	if a.IsNull(i) {
		return "N"
	}
	switch arr := a.(type) {
	case *arrow.Float32Array:
		return strconv.FormatUint(uint64(math.Float32bits(canonFloat(arr.Value(i)))), 16)
	case *arrow.Float64Array:
		return strconv.FormatUint(math.Float64bits(canonFloat(arr.Value(i))), 16)
	case *arrow.StringArray:
		return strconv.Itoa(len(arr.ValueBytes(i))) + ":" + string(arr.ValueBytes(i))
	}
	return a.GetScalar(i).String()
}

// wantLookup is what lookupInto must return for row i: its group, or -1
// when the key is absent or holds a NULL.
func wantLookup(ref map[string]uint32, cols []arrow.Array, i int) int32 {
	for _, a := range cols {
		if a.IsNull(i) {
			return -1
		}
	}
	if g, ok := ref[refKey(cols, i)]; ok {
		return int32(g)
	}
	return -1
}

func refKey(cols []arrow.Array, i int) string {
	cells := make([]string, len(cols))
	for c, a := range cols {
		cells[c] = refKeyCell(a, i)
	}
	return strings.Join(cells, "|")
}

// sliceAt builds n rows starting at a non-zero offset of a longer array,
// so key columns arrive as views.
func sliceAt(g keyGen, rng *rand.Rand, n int, null func() bool) arrow.Array {
	off := 1 + rng.Intn(13)
	return g.gen(rng, off+n, null).Slice(off, n)
}

// checkKeyTable assigns batches to one table and a map reference, then
// checks ids, round-tripped group columns and lookups.
func checkKeyTable(t *testing.T, gens []keyGen, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := make([]*arrow.DataType, len(gens))
	for c, g := range gens {
		types[c] = g.dt
	}
	gt, err := newGroupTable(types)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]uint32{}
	var firstRows [][]arrow.Array // per group: the batch whose row created it
	var firstRow []int
	null := func() bool { return rng.Intn(5) == 0 }
	batch := func(n int) []arrow.Array {
		cols := make([]arrow.Array, len(gens))
		for c, g := range gens {
			if rng.Intn(2) == 0 {
				cols[c] = sliceAt(g, rng, n, null)
			} else {
				cols[c] = g.gen(rng, n, null)
			}
		}
		return cols
	}
	var out []uint32
	var batches [][]arrow.Array
	for b := 0; b < 8; b++ {
		n := 5 + rng.Intn(300)
		cols := batch(n)
		batches = append(batches, cols)
		out = mustAssign(t, gt, cols, n, out)
		for i := 0; i < n; i++ {
			k := refKey(cols, i)
			want, ok := ref[k]
			if !ok {
				want = uint32(len(ref))
				ref[k] = want
				firstRows, firstRow = append(firstRows, cols), append(firstRow, i)
			}
			if out[i] != want {
				t.Fatalf("batch %d row %d (%s): group %d, want %d", b, i, k, out[i], want)
			}
		}
	}
	if gt.numGroups() != len(ref) {
		t.Fatalf("%d groups, want %d", gt.numGroups(), len(ref))
	}
	gcols := gt.groupColumns()
	for c, g := range gens {
		if gcols[c].Len() != len(ref) || gcols[c].DataType().ID != g.dt.ID {
			t.Fatalf("column %d: %s of %d rows, want %s of %d", c, gcols[c].DataType(), gcols[c].Len(), g.dt, len(ref))
		}
		for grp := range firstRow {
			got, want := refKeyCell(gcols[c], grp), refKeyCell(firstRows[grp][c], firstRow[grp])
			if got != want {
				t.Fatalf("group %d column %d emitted %.60s, want %.60s", grp, c, got, want)
			}
			switch a := gcols[c].(type) {
			case *arrow.Float64Array:
				if v := a.Value(grp); a.IsValid(grp) && (v == 0 && math.Signbit(v) || v != v && math.Float64bits(v) != 0x7FF8000000000000) {
					t.Fatalf("group %d stores %x, not the canonical key", grp, math.Float64bits(v))
				}
			case *arrow.Float32Array:
				if v := a.Value(grp); a.IsValid(grp) && (v == 0 && math.Signbit(float64(v)) || v != v && math.Float32bits(v) != 0x7FC00000) {
					t.Fatalf("group %d stores %x, not the canonical key", grp, math.Float32bits(v))
				}
			}
		}
	}
	// Lookups agree with the map: assigned batches and a fresh one; a row
	// with a NULL in any key column finds nothing.
	var ls lookupScratch
	for _, cols := range append(batches, batch(200)) {
		n := cols[0].Len()
		ids := gt.lookupInto(cols, n, &ls, nil)
		for i := 0; i < n; i++ {
			if want := wantLookup(ref, cols, i); ids[i] != want {
				t.Fatalf("lookup of %s = %d, want %d", refKey(cols, i), ids[i], want)
			}
		}
	}
	if mem := gt.memUsage(); mem < int64(len(ref)) {
		t.Fatalf("memUsage %d for %d groups", mem, len(ref))
	}
}

// TestGroupTableKeyTypeMatrix runs every key type alone (the integer types
// on the fast path), beside a string, and all together, with NULL in
// every position and arrays sliced at non-zero offsets.
func TestGroupTableKeyTypeMatrix(t *testing.T) {
	gens := keyTypeGens()
	for i, g := range gens {
		t.Run(g.dt.String(), func(t *testing.T) {
			checkKeyTable(t, []keyGen{g}, int64(i))
			checkKeyTable(t, []keyGen{g, bytesKeyGen(arrow.String, false)}, int64(100+i))
		})
	}
	t.Run("all", func(t *testing.T) { checkKeyTable(t, gens, 1000) })
}

// TestGroupTableHashCollisions feeds keys whose hashes all collide: every
// probe then compares against keys that differ, which rolls the batch back
// and redoes it a row at a time. Ids must still be dense and in
// first-appearance order, and lookups must skip the wrong candidates.
func TestGroupTableHashCollisions(t *testing.T) {
	for _, types := range [][]*arrow.DataType{{arrow.Int64}, {arrow.Int64, arrow.String}, {arrow.Float64}} {
		t.Run(fmt.Sprint(types), func(t *testing.T) {
			gt, err := newGroupTable(types)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			ref := map[string]uint32{}
			var out []uint32
			for b := 0; b < 4; b++ {
				const n = 120
				cols := randomKeyBatch(rng, n, 40)[:len(types)]
				if types[0] == arrow.Float64 {
					fb := arrow.NewNumericBuilder[float64](arrow.Float64)
					for i := 0; i < n; i++ {
						fb.Append([]float64{0, negZero64, math.NaN(), nan64b, 1, 2, 3}[rng.Intn(7)])
					}
					cols = []arrow.Array{fb.Finish()}
				}
				zero := make([]uint64, n)
				out = mustAssignHashed(t, gt, cols, n, zero, out)
				for i := 0; i < n; i++ {
					k := refKey(cols, i)
					want, ok := ref[k]
					if !ok {
						want = uint32(len(ref))
						ref[k] = want
					}
					if out[i] != want {
						t.Fatalf("batch %d row %d (%s): group %d, want %d", b, i, k, out[i], want)
					}
				}
				ids := gt.lookupHashed(cols, n, zero, &lookupScratch{}, nil)
				for i := 0; i < n; i++ {
					if want := wantLookup(ref, cols, i); ids[i] != want {
						t.Fatalf("lookup row %d = %d, want %d", i, ids[i], want)
					}
				}
			}
			if gt.numGroups() != len(ref) {
				t.Fatalf("%d groups, want %d", gt.numGroups(), len(ref))
			}
		})
	}
}

// TestGroupTableEmittedArraysSurviveReset emits the groups, resets the
// table and fills it with other keys — first the same number of groups,
// then enough to grow it: the emitted arrays alias the key store, so reset
// must have handed the columns fresh buffers.
func TestGroupTableEmittedArraysSurviveReset(t *testing.T) {
	types := []*arrow.DataType{arrow.Int64, arrow.String, arrow.Float64, arrow.Boolean}
	gt, err := newGroupTable(types)
	if err != nil {
		t.Fatal(err)
	}
	build := func(salt, n int) []arrow.Array {
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		sb := arrow.NewStringBuilder(arrow.String)
		fb := arrow.NewNumericBuilder[float64](arrow.Float64)
		bb := arrow.NewBoolBuilder()
		for i := 0; i < n; i++ {
			if i%9 == 0 {
				ib.AppendNull()
			} else {
				ib.Append(int64(salt*1_000_000 + i))
			}
			sb.Append(fmt.Sprintf("s%d-%d", salt, i))
			fb.Append(float64(salt) + float64(i)/8)
			bb.Append((i+salt)%2 == 0)
		}
		return []arrow.Array{ib.Finish(), sb.Finish(), fb.Finish(), bb.Finish()}
	}
	const n = 500
	mustAssign(t, gt, build(1, n), n, nil)
	emitted := gt.groupColumns()
	want := make([]string, n)
	for i := range want {
		want[i] = refKey(emitted, i)
	}
	for round, rows := range []int{n, 40 * n} {
		gt.reset()
		mustAssign(t, gt, build(2+round, rows), rows, nil)
		for i := range want {
			if got := refKey(emitted, i); got != want[i] {
				t.Fatalf("round %d: emitted group %d changed from %s to %s", round, i, want[i], got)
			}
		}
	}
	// Groups appended after an emit leave the emitted arrays as they were.
	before := gt.groupColumns()
	last := refKey(before, 40*n-1)
	mustAssign(t, gt, build(9, n), n, nil)
	if got := refKey(before, 40*n-1); got != last || before[0].Len() != 40*n {
		t.Fatalf("appending groups changed an emitted array: %s, was %s", got, last)
	}
}

// TestGroupTableConcurrentLookups probes one built table from several
// goroutines at once, each with its own scratch, as CollectLeft join
// partitions do (run under -race).
func TestGroupTableConcurrentLookups(t *testing.T) {
	for _, types := range [][]*arrow.DataType{{arrow.Int64}, {arrow.Int64, arrow.String}} {
		t.Run(fmt.Sprint(types), func(t *testing.T) {
			gt, err := newGroupTable(types)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			ref := map[string]uint32{}
			for b := 0; b < 5; b++ {
				cols := randomKeyBatch(rng, 400, 200)[:len(types)]
				out := mustAssign(t, gt, cols, 400, nil)
				for i, g := range out {
					ref[refKey(cols, i)] = g
				}
			}
			probes := make([][]arrow.Array, 8)
			for p := range probes {
				probes[p] = randomKeyBatch(rng, 300, 300)[:len(types)]
			}
			var wg sync.WaitGroup
			errs := make([]error, len(probes))
			for p, cols := range probes {
				wg.Add(1)
				go func(p int, cols []arrow.Array) {
					defer wg.Done()
					var ls lookupScratch
					var ids []int32
					for rep := 0; rep < 20; rep++ {
						ids = gt.lookupInto(cols, 300, &ls, ids)
						for i, id := range ids {
							if want := wantLookup(ref, cols, i); id != want {
								errs[p] = fmt.Errorf("lookup of %s = %d, want %d", refKey(cols, i), id, want)
								return
							}
						}
					}
				}(p, cols)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestGroupTableNullArrayColumns feeds a typed key column as
// *arrow.NullArray, the form an all-NULL column of any type may take: its
// rows join the group of the typed batches' NULL key and look up nothing.
func TestGroupTableNullArrayColumns(t *testing.T) {
	for _, types := range [][]*arrow.DataType{{arrow.Int64}, {arrow.Float64}, {arrow.String, arrow.Boolean}} {
		t.Run(fmt.Sprint(types), func(t *testing.T) {
			gt, err := newGroupTable(types)
			if err != nil {
				t.Fatal(err)
			}
			typed := make([]arrow.Array, len(types))
			nulls := make([]arrow.Array, len(types))
			for c, dt := range types {
				b := arrow.NewBuilder(dt)
				b.AppendNull()
				b.AppendScalar(arrow.NewScalar(dt, map[arrow.TypeID]any{arrow.INT64: int64(1), arrow.FLOAT64: 1.0, arrow.STRING: "a", arrow.BOOL: true}[dt.ID]))
				typed[c], nulls[c] = b.Finish(), arrow.NewNull(2)
			}
			first := mustAssign(t, gt, typed, 2, nil)
			again := mustAssign(t, gt, nulls, 2, nil)
			if gt.numGroups() != 2 || again[0] != first[0] || again[1] != first[0] {
				t.Fatalf("typed rows got %v, NULL-array rows %v, %d groups", first, again, gt.numGroups())
			}
			if ids := gt.lookupInto(nulls, 2, &lookupScratch{}, nil); ids[0] != -1 || ids[1] != -1 {
				t.Fatalf("NULL-array probe found %v", ids)
			}
			if got := refKey(gt.groupColumns(), 0); got != refKey(typed, 0) {
				t.Fatalf("NULL group emitted %s", got)
			}
		})
	}
}

// TestBytesKeysLimit checks the one way assign can fail: a string column's
// keys would pass the 2 GiB that int32 Arrow offsets address.
func TestBytesKeysLimit(t *testing.T) {
	k := &bytesKeys{dt: arrow.String}
	k.reserve(4)
	if err := k.growData(math.MaxInt32 + 1); err == nil || !strings.Contains(err.Error(), "2 GiB") {
		t.Fatalf("growData past 2 GiB: %v", err)
	}
	if len(k.offsets) != 1 || cap(k.data) != 0 {
		t.Fatalf("a refused growth stored something: %d offsets, %d bytes", len(k.offsets), cap(k.data))
	}
}
