package functions

import (
	"fmt"
	"math"
	"testing"

	"gofusion/internal/arrow"
)

// reduceArray builds one argument batch of type t from int64 seeds, NULL
// where valid[i] is false.
func reduceArray(t *arrow.DataType, seeds []int64, valid []bool) arrow.Array {
	b := arrow.NewBuilder(t)
	for i, v := range seeds {
		if !valid[i] {
			b.AppendNull()
			continue
		}
		var x any
		switch t.ID {
		case arrow.INT8:
			x = int8(v)
		case arrow.INT16:
			x = int16(v)
		case arrow.INT32, arrow.DATE32:
			x = int32(v)
		case arrow.UINT8:
			x = uint8(v)
		case arrow.UINT16:
			x = uint16(v)
		case arrow.UINT32:
			x = uint32(v)
		case arrow.UINT64:
			x = uint64(v)
		case arrow.FLOAT32:
			x = float32(v) / 7
		case arrow.FLOAT64:
			x = float64(v) / 7
		default: // Int64, Decimal
			x = v
		}
		b.AppendScalar(arrow.NewScalar(t, x))
	}
	return b.Finish()
}

// sameCell compares slot 0 of two results, floats bit for bit.
func sameCell(a, b arrow.Array) bool {
	if a.IsNull(0) || b.IsNull(0) {
		return a.IsNull(0) == b.IsNull(0)
	}
	x, y := a.GetScalar(0), b.GetScalar(0)
	if x.Type.IsFloat() {
		return math.Float64bits(x.AsFloat64()) == math.Float64bits(y.AsFloat64())
	}
	return fmt.Sprint(x.Val) == fmt.Sprint(y.Val)
}

// TestUngroupedReductionMatchesPerRow is the accumulators' self-oracle:
// over three batches, the one-group reduction (Update with numGroups == 1)
// must leave exactly the state the per-row path leaves in group 0 when the
// same rows arrive with numGroups == 2. The differential suites cannot
// check this: TightDB runs these same accumulators.
func TestUngroupedReductionMatchesPerRow(t *testing.T) {
	r := NewRegistry()
	types := []*arrow.DataType{
		arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
		arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
		arrow.Float32, arrow.Float64, arrow.Decimal(18, 2), arrow.Date32,
	}
	const n = 1000
	shapes := []struct {
		name  string
		lens  [3]int
		seed  func(i int) int64
		valid func(i int) bool
	}{
		{"no nulls", [3]int{n, n, n}, func(i int) int64 { return int64(i*7919%2001 - 1000) }, func(int) bool { return true }},
		{"some nulls", [3]int{n, n, n}, func(i int) int64 { return int64(i*7919%2001 - 1000) }, func(i int) bool { return i%3 != 0 }},
		{"all null", [3]int{n, n, n}, func(i int) int64 { return int64(i) }, func(int) bool { return false }},
		{"empty batch", [3]int{n, 0, n}, func(i int) int64 { return int64(i*31%97 - 40) }, func(i int) bool { return i%5 != 0 }},
		{"int64 wraparound", [3]int{n, n, n}, func(i int) int64 { return math.MaxInt64 - int64(i) }, func(int) bool { return true }},
	}
	aggs := []struct{ name, fn string }{
		{"sum", "sum"}, {"count", "count"}, {"count(*)", "count"}, {"avg", "avg"}, {"min", "min"}, {"max", "max"},
	}
	for _, typ := range types {
		for _, sh := range shapes {
			var batches [3][]arrow.Array
			row := 0
			for k, ln := range sh.lens {
				seeds, valid := make([]int64, ln), make([]bool, ln)
				for i := range seeds {
					seeds[i], valid[i] = sh.seed(row), sh.valid(row)
					row++
				}
				batches[k] = []arrow.Array{reduceArray(typ, seeds, valid)}
			}
			for _, ag := range aggs {
				fn, _ := r.Agg(ag.fn)
				argTypes := []*arrow.DataType{typ}
				if ag.name == "count(*)" {
					argTypes = nil
				}
				if _, err := fn.ReturnType(argTypes); err != nil {
					continue // e.g. sum(date32) is rejected at planning
				}
				reduced, err := fn.NewAccumulator(argTypes)
				if err != nil {
					continue
				}
				perRow, _ := fn.NewAccumulator(argTypes)
				name := fmt.Sprintf("%s(%s) %s", ag.name, typ, sh.name)
				for k, args := range batches {
					if argTypes == nil {
						args = nil
					}
					zeros := make([]uint32, sh.lens[k])
					rerr := reduced.Update(args, zeros, 1)
					perr := perRow.Update(args, zeros, 2)
					if (rerr == nil) != (perr == nil) {
						t.Fatalf("%s: reduction error %v, per-row error %v", name, rerr, perr)
					}
				}
				got, err := reduced.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				want, err := perRow.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				if !sameCell(got, want) {
					t.Fatalf("%s: reduction gives %v, per-row group 0 gives %v", name, got.GetScalar(0), want.GetScalar(0))
				}
			}
		}
	}
}

// TestGrowToDoubles checks that growTo zero-fills the new tail, reuses
// spare capacity, and at least doubles the capacity when it must move, so
// state grown one batch at a time is re-copied O(log n) times.
func TestGrowToDoubles(t *testing.T) {
	s := growTo([]int64{1, 2, 3}, 3)
	if len(s) != 3 {
		t.Fatalf("growTo to the same length: len %d", len(s))
	}
	s = append(s[:3], 9, 9)[:3] // dirty spare capacity
	s = growTo(s, 5)
	if s[3] != 0 || s[4] != 0 {
		t.Fatalf("reused capacity not zeroed: %v", s)
	}
	moves := 0
	for n := 6; n <= 1<<20; n += 8192 {
		before := cap(s)
		if s = growTo(s, n); cap(s) != before {
			moves++
			if cap(s) < 2*before {
				t.Fatalf("capacity %d -> %d, want at least doubled", before, cap(s))
			}
		}
		if s[n-1] != 0 || len(s) != n {
			t.Fatalf("growTo(%d): len %d, last %d", n, len(s), s[n-1])
		}
	}
	if moves > 20 {
		t.Fatalf("%d reallocations on the way to 1 Mi elements", moves)
	}
}
