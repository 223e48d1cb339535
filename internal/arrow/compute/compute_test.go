package compute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gofusion/internal/arrow"
)

// randInt64Array builds a random Int64 array with ~20% nulls.
func randInt64Array(rng *rand.Rand, n int) *arrow.Int64Array {
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			b.AppendNull()
		} else {
			b.Append(rng.Int63n(100) - 50)
		}
	}
	return b.Finish().(*arrow.Int64Array)
}

func randBoolArray(rng *rand.Rand, n int, withNulls bool) *arrow.BoolArray {
	b := arrow.NewBoolBuilder()
	for i := 0; i < n; i++ {
		if withNulls && rng.Intn(4) == 0 {
			b.AppendNull()
		} else {
			b.Append(rng.Intn(2) == 0)
		}
	}
	return b.Finish().(*arrow.BoolArray)
}

func TestFilterNumeric(t *testing.T) {
	a := arrow.NewInt64([]int64{1, 2, 3, 4, 5})
	mask := arrow.NewBoolFromSlice([]bool{true, false, true, false, true})
	out, err := FilterBatch(arrow.NewRecordBatch(nil, []arrow.Array{a}), mask)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Column(0).(*arrow.Int64Array)
	want := []int64{1, 3, 5}
	if got.Len() != 3 {
		t.Fatalf("len=%d", got.Len())
	}
	for i, w := range want {
		if got.Value(i) != w {
			t.Fatalf("got[%d]=%d want %d", i, got.Value(i), w)
		}
	}
}

func TestFilterNullMaskDropsRows(t *testing.T) {
	a := arrow.NewInt64([]int64{1, 2, 3})
	mb := arrow.NewBoolBuilder()
	mb.Append(true)
	mb.AppendNull()
	mb.Append(true)
	mask := mb.Finish().(*arrow.BoolArray)
	out, err := FilterBatch(arrow.NewRecordBatch(nil, []arrow.Array{a}), mask)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Column(0).(*arrow.Int64Array).Value(1) != 3 {
		t.Fatal("NULL mask slots must be dropped")
	}
}

func TestTakeWithNullIndices(t *testing.T) {
	a := arrow.NewStringFromSlice([]string{"a", "b", "c"})
	out := Take(a, []int32{2, -1, 0, 0}).(*arrow.StringArray)
	if out.Len() != 4 || out.Value(0) != "c" || !out.IsNull(1) || out.Value(3) != "a" {
		t.Fatalf("take wrong: %v", out)
	}
}

// Property: Take on random indices equals scalar gather.
func TestTakeMatchesReference(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%50 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randInt64Array(rng, n)
		indices := make([]int32, rng.Intn(80))
		for i := range indices {
			indices[i] = int32(rng.Intn(n+1)) - 1 // may be -1
		}
		out := Take(a, indices)
		for i, idx := range indices {
			var want arrow.Scalar
			if idx < 0 {
				want = arrow.NullScalar(arrow.Int64)
			} else {
				want = a.GetScalar(int(idx))
			}
			if !out.GetScalar(i).Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareOps(t *testing.T) {
	a := arrow.NewInt64([]int64{1, 5, 3})
	b := arrow.NewInt64([]int64{2, 5, 1})
	cases := []struct {
		op   CmpOp
		want []bool
	}{
		{Eq, []bool{false, true, false}},
		{Neq, []bool{true, false, true}},
		{Lt, []bool{true, false, false}},
		{LtEq, []bool{true, true, false}},
		{Gt, []bool{false, false, true}},
		{GtEq, []bool{false, true, true}},
	}
	for _, c := range cases {
		out, err := Compare(c.op, a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range c.want {
			if out.Value(i) != w {
				t.Fatalf("op %v slot %d: got %v want %v", c.op, i, out.Value(i), w)
			}
		}
	}
}

func TestCompareNullPropagation(t *testing.T) {
	ab := arrow.NewNumericBuilder[int64](arrow.Int64)
	ab.Append(1)
	ab.AppendNull()
	a := ab.Finish()
	b := arrow.NewInt64([]int64{1, 1})
	out, err := Compare(Eq, a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Value(0) || !out.IsNull(1) {
		t.Fatal("null must propagate through comparison")
	}
}

func TestCompareScalarString(t *testing.T) {
	a := arrow.NewStringFromSlice([]string{"apple", "banana", "cherry"})
	out, err := CompareScalar(GtEq, a, arrow.StringScalar("banana"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true}
	for i, w := range want {
		if out.Value(i) != w {
			t.Fatalf("slot %d: got %v", i, out.Value(i))
		}
	}
}

func TestCmpOpNegateFlip(t *testing.T) {
	if Lt.Negate() != GtEq || Eq.Negate() != Neq || GtEq.Negate() != Lt {
		t.Fatal("negate wrong")
	}
	if Lt.Flip() != Gt || Eq.Flip() != Eq || LtEq.Flip() != GtEq {
		t.Fatal("flip wrong")
	}
}
