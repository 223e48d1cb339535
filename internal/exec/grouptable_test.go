package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/rowformat"
)

// refAssign is the straightforward reference: encode every row's key and
// look it up in a Go map (the pre-hash-first implementation).
type refAssign struct {
	enc   *rowformat.Encoder
	index map[string]uint32
	keys  [][]byte
}

func newRefAssign(t *testing.T, types []*arrow.DataType) *refAssign {
	t.Helper()
	enc, err := rowformat.NewEncoder(types, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &refAssign{enc: enc, index: map[string]uint32{}}
}

func (r *refAssign) assign(cols []arrow.Array, n int) []uint32 {
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		key := r.enc.AppendRowKey(nil, cols, i)
		idx, ok := r.index[string(key)]
		if !ok {
			idx = uint32(len(r.keys))
			r.index[string(key)] = idx
			r.keys = append(r.keys, key)
		}
		out[i] = idx
	}
	return out
}

// mustAssign is groupTable.assign, failing the test on an error.
func mustAssign(tb testing.TB, gt *groupTable, cols []arrow.Array, n int, out []uint32) []uint32 {
	tb.Helper()
	out, err := gt.assign(cols, n, out)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// mustAssignHashed is groupTable.assignHashed, failing the test on an error.
func mustAssignHashed(tb testing.TB, gt *groupTable, cols []arrow.Array, n int, hashes []uint64, out []uint32) []uint32 {
	tb.Helper()
	out, err := gt.assignHashed(cols, n, hashes, out)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// randomKeyBatch builds one (int64 nullable, string nullable) key batch
// exercising nulls, empty strings and duplicate keys.
func randomKeyBatch(rng *rand.Rand, n, card int) []arrow.Array {
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			ib.AppendNull()
		} else {
			ib.Append(int64(rng.Intn(card)) - int64(card/2))
		}
		switch rng.Intn(10) {
		case 0:
			sb.AppendNull()
		case 1:
			sb.Append("")
		case 2:
			sb.Append("s\x00zero") // embedded NUL exercises key escaping
		default:
			sb.Append(fmt.Sprintf("s%d", rng.Intn(card)))
		}
	}
	return []arrow.Array{ib.Finish(), sb.Finish()}
}

func TestGroupTableMatchesReference(t *testing.T) {
	types := []*arrow.DataType{arrow.Int64, arrow.String}
	gt, err := newGroupTable(types)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefAssign(t, types)
	rng := rand.New(rand.NewSource(7))
	var out []uint32
	for batch := 0; batch < 30; batch++ {
		n := 1 + rng.Intn(700)
		cols := randomKeyBatch(rng, n, 50)
		out = mustAssign(t, gt, cols, n, out)
		want := ref.assign(cols, n)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("batch %d row %d: gid %d, want %d", batch, i, out[i], want[i])
			}
		}
	}
	if gt.numGroups() != len(ref.keys) {
		t.Fatalf("numGroups = %d, want %d", gt.numGroups(), len(ref.keys))
	}
	// Group columns decode back in dense-id order.
	gcols := gt.groupColumns()
	wcols, err := ref.enc.DecodeRows(ref.keys)
	if err != nil {
		t.Fatal(err)
	}
	for c := range gcols {
		for i := 0; i < gt.numGroups(); i++ {
			if !gcols[c].GetScalar(i).Equal(wcols[c].GetScalar(i)) {
				t.Fatalf("group col %d row %d: %s != %s", c, i, gcols[c].GetScalar(i), wcols[c].GetScalar(i))
			}
		}
	}
}

func TestGroupTableFastPathPrimitive(t *testing.T) {
	for _, dt := range []*arrow.DataType{arrow.Int64, arrow.Int32} {
		t.Run(dt.String(), func(t *testing.T) {
			gt, err := newGroupTable([]*arrow.DataType{dt})
			if err != nil {
				t.Fatal(err)
			}
			if gt.one == nil {
				t.Fatal("expected primitive fast path")
			}
			ref := newRefAssign(t, []*arrow.DataType{dt})
			rng := rand.New(rand.NewSource(11))
			var out []uint32
			for batch := 0; batch < 20; batch++ {
				n := 1 + rng.Intn(500)
				b := arrow.NewBuilder(dt)
				for i := 0; i < n; i++ {
					if rng.Intn(12) == 0 {
						b.AppendNull()
					} else {
						v := int64(rng.Intn(20000)) - 10000 // negatives included
						if dt == arrow.Int32 {
							b.AppendScalar(arrow.NewScalar(dt, int32(v)))
						} else {
							b.AppendScalar(arrow.NewScalar(dt, v))
						}
					}
				}
				cols := []arrow.Array{b.Finish()}
				out = mustAssign(t, gt, cols, n, out)
				want := ref.assign(cols, n)
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("row %d: gid %d, want %d", i, out[i], want[i])
					}
				}
			}
			gcols := gt.groupColumns()
			wcols, err := ref.enc.DecodeRows(ref.keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < gt.numGroups(); i++ {
				if !gcols[0].GetScalar(i).Equal(wcols[0].GetScalar(i)) {
					t.Fatalf("group %d: %s != %s", i, gcols[0].GetScalar(i), wcols[0].GetScalar(i))
				}
			}
		})
	}
}

func TestGroupTableGrowth(t *testing.T) {
	// Force many rehash rounds from the minimal table size.
	gt, err := newGroupTable([]*arrow.DataType{arrow.String})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	sb := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		sb.Append(fmt.Sprintf("key-%d", i%12000))
	}
	cols := []arrow.Array{sb.Finish()}
	out := mustAssign(t, gt, cols, n, nil)
	if gt.numGroups() != 12000 {
		t.Fatalf("numGroups = %d, want 12000", gt.numGroups())
	}
	for i := 0; i < n; i++ {
		if out[i] != uint32(i%12000) {
			t.Fatalf("row %d: gid %d, want %d", i, out[i], i%12000)
		}
	}
}

func TestGroupTableResetReuse(t *testing.T) {
	gt, err := newGroupTable([]*arrow.DataType{arrow.Int64, arrow.String})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	cols := randomKeyBatch(rng, 400, 30)
	first := append([]uint32(nil), mustAssign(t, gt, cols, 400, nil)...)
	before := gt.numGroups()
	gt.reset()
	if gt.numGroups() != 0 || gt.memUsage() == 0 {
		t.Fatalf("after reset: groups=%d mem=%d", gt.numGroups(), gt.memUsage())
	}
	second := mustAssign(t, gt, cols, 400, nil)
	if gt.numGroups() != before {
		t.Fatalf("groups after reuse = %d, want %d", gt.numGroups(), before)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d: %d != %d after reset", i, first[i], second[i])
		}
	}
}

func TestGroupTableLookup(t *testing.T) {
	types := []*arrow.DataType{arrow.Int64, arrow.String}
	gt, err := newGroupTable(types)
	if err != nil {
		t.Fatal(err)
	}
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < 100; i++ {
		ib.Append(int64(i))
		sb.Append(fmt.Sprintf("v%d", i))
	}
	mustAssign(t, gt, []arrow.Array{ib.Finish(), sb.Finish()}, 100, nil)

	// Probe: present, absent, and null rows.
	pb := arrow.NewNumericBuilder[int64](arrow.Int64)
	ps := arrow.NewStringBuilder(arrow.String)
	pb.Append(42)
	ps.Append("v42") // hit -> gid 42
	pb.Append(42)
	ps.Append("nope") // miss
	pb.AppendNull()
	ps.Append("v7") // null key col -> miss
	pb.Append(7)
	ps.AppendNull() // null key col -> miss
	var ls lookupScratch
	got := gt.lookupInto([]arrow.Array{pb.Finish(), ps.Finish()}, 4, &ls, nil)
	want := []int32{42, -1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lookup row %d = %d, want %d", i, got[i], want[i])
		}
	}

	// Fast-path table: nulls never match even when a null group exists.
	ft, err := newGroupTable([]*arrow.DataType{arrow.Int64})
	if err != nil {
		t.Fatal(err)
	}
	fb := arrow.NewNumericBuilder[int64](arrow.Int64)
	fb.Append(5)
	fb.AppendNull()
	mustAssign(t, ft, []arrow.Array{fb.Finish()}, 2, nil)
	qb := arrow.NewNumericBuilder[int64](arrow.Int64)
	qb.Append(5)
	qb.AppendNull()
	qb.Append(6)
	got = ft.lookupInto([]arrow.Array{qb.Finish()}, 3, &ls, nil)
	want = []int32{0, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fast lookup row %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGroupTableHomeSlotsBehindExchange feeds a table only the keys a
// two-way hash exchange routes to one output, as every final aggregate and
// partitioned join build sees them. The exchange must not have spent the
// hash bits the table places by: home slots of both parities are used.
func TestGroupTableHomeSlotsBehindExchange(t *testing.T) {
	const n = 50_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 31
	}
	all := []arrow.Array{arrow.NewInt64(vals)}
	hashes := compute.HashBatch(all, n, nil)
	var mine []int64
	for i, h := range hashes {
		if hashPartition(h, 2) == 0 {
			mine = append(mine, vals[i])
		}
	}
	if len(mine) < n*4/10 || len(mine) > n*6/10 {
		t.Fatalf("output 0 of 2 got %d of %d keys", len(mine), n)
	}
	gt, err := newGroupTable([]*arrow.DataType{arrow.Int64})
	if err != nil {
		t.Fatal(err)
	}
	mustAssign(t, gt, []arrow.Array{arrow.NewInt64(mine)}, len(mine), nil)
	odd := 0
	for slot, g := range gt.slotGroup {
		if g != 0 && gt.slotHash[slot]&1 == 1 {
			odd++
		}
	}
	if share := float64(odd) / float64(len(mine)); share < 0.4 || share > 0.6 {
		t.Fatalf("%.0f%% of the keys have an odd home slot, want about half", 100*share)
	}
}

// TestGroupTableAssignSteadyStateAllocs asserts the acceptance criterion:
// assigning a batch of already-seen keys performs no per-row allocations.
func TestGroupTableAssignSteadyStateAllocs(t *testing.T) {
	for _, shape := range []string{"int", "str", "mixed6"} {
		t.Run(shape, func(t *testing.T) {
			var types []*arrow.DataType
			var cols []arrow.Array
			const n = 4096
			ints := func(mod int) arrow.Array {
				b := arrow.NewNumericBuilder[int64](arrow.Int64)
				for i := 0; i < n; i++ {
					b.Append(int64(i % mod))
				}
				return b.Finish()
			}
			strs := func(mod int) arrow.Array {
				b := arrow.NewStringBuilder(arrow.String)
				for i := 0; i < n; i++ {
					b.Append(fmt.Sprintf("key-%d", i%mod))
				}
				return b.Finish()
			}
			switch shape {
			case "int":
				types, cols = []*arrow.DataType{arrow.Int64}, []arrow.Array{ints(16)}
			case "str":
				types, cols = []*arrow.DataType{arrow.String}, []arrow.Array{strs(16)}
			default: // H2O q10's key shape: three strings and three integers
				types = []*arrow.DataType{arrow.String, arrow.String, arrow.String, arrow.Int64, arrow.Int64, arrow.Int64}
				cols = []arrow.Array{strs(4), strs(8), strs(16), ints(2), ints(4), ints(16)}
			}
			gt, err := newGroupTable(types)
			if err != nil {
				t.Fatal(err)
			}
			out := mustAssign(t, gt, cols, n, nil) // warm up: create the 16 groups
			allocs := testing.AllocsPerRun(10, func() {
				out = mustAssign(t, gt, cols, n, out)
			})
			if allocs > 0 {
				t.Fatalf("steady-state assign allocates %.1f times per batch, want 0", allocs)
			}
		})
	}
}

// benchGroupTableInsert is the final table of a high-cardinality
// multi-column aggregation (H2O q10's shape): every row of every batch is a
// new group of three strings and three integers, so it measures what one
// new group costs — key append, slot-table growth — as the
// table grows to 262 144 groups.
func benchGroupTableInsert(b *testing.B) {
	const batchRows, batches = 8192, 32
	types := []*arrow.DataType{arrow.String, arrow.String, arrow.String, arrow.Int64, arrow.Int64, arrow.Int64}
	input := make([][]arrow.Array, batches)
	for k := range input {
		var sb [3]*arrow.StringBuilder
		var ib [3]*arrow.NumericBuilder[int64]
		for c := range sb {
			sb[c], ib[c] = arrow.NewStringBuilder(arrow.String), arrow.NewNumericBuilder[int64](arrow.Int64)
		}
		for i := 0; i < batchRows; i++ {
			row := k*batchRows + i
			sb[0].Append(fmt.Sprintf("id%03d", row%100))
			sb[1].Append(fmt.Sprintf("id%03d", row%97))
			sb[2].Append(fmt.Sprintf("id%010d", row))
			ib[0].Append(int64(row % 100))
			ib[1].Append(int64(row % 89))
			ib[2].Append(int64(row))
		}
		input[k] = []arrow.Array{sb[0].Finish(), sb[1].Finish(), sb[2].Finish(), ib[0].Finish(), ib[1].Finish(), ib[2].Finish()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gt, err := newGroupTable(types)
		if err != nil {
			b.Fatal(err)
		}
		var out []uint32
		for _, cols := range input {
			out = mustAssign(b, gt, cols, batchRows, out)
		}
		if gt.numGroups() != batchRows*batches {
			b.Fatalf("%d groups", gt.numGroups())
		}
	}
}

func BenchmarkGroupTableAssign(b *testing.B) {
	b.Run("mixed6/all-new", benchGroupTableInsert)
	const n = 8192
	for _, shape := range []string{"int", "str", "mixed"} {
		for _, card := range []int{16, 4096} {
			b.Run(fmt.Sprintf("%s/card=%d", shape, card), func(b *testing.B) {
				var types []*arrow.DataType
				var cols []arrow.Array
				ib := arrow.NewNumericBuilder[int64](arrow.Int64)
				sb := arrow.NewStringBuilder(arrow.String)
				for i := 0; i < n; i++ {
					ib.Append(int64(i % card))
					sb.Append(fmt.Sprintf("key-%08d", i%card))
				}
				switch shape {
				case "int":
					types = []*arrow.DataType{arrow.Int64}
					cols = []arrow.Array{ib.Finish()}
				case "str":
					types = []*arrow.DataType{arrow.String}
					cols = []arrow.Array{sb.Finish()}
				default:
					types = []*arrow.DataType{arrow.Int64, arrow.String}
					cols = []arrow.Array{ib.Finish(), sb.Finish()}
				}
				gt, err := newGroupTable(types)
				if err != nil {
					b.Fatal(err)
				}
				out := mustAssign(b, gt, cols, n, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = mustAssign(b, gt, cols, n, out)
				}
				_ = out
			})
		}
	}
}
