package compute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gofusion/internal/arrow"
)

// tri represents three-valued logic: -1 = NULL, 0 = FALSE, 1 = TRUE.
type tri int

func triOf(a *arrow.BoolArray, i int) tri {
	if a.IsNull(i) {
		return -1
	}
	if a.Value(i) {
		return 1
	}
	return 0
}

func refAnd(a, b tri) tri {
	if a == 0 || b == 0 {
		return 0
	}
	if a == -1 || b == -1 {
		return -1
	}
	return 1
}

func refOr(a, b tri) tri {
	if a == 1 || b == 1 {
		return 1
	}
	if a == -1 || b == -1 {
		return -1
	}
	return 0
}

func triArray(vals []tri) *arrow.BoolArray {
	b := arrow.NewBoolBuilder()
	for _, v := range vals {
		switch v {
		case -1:
			b.AppendNull()
		case 0:
			b.Append(false)
		default:
			b.Append(true)
		}
	}
	return b.Finish().(*arrow.BoolArray)
}

func TestThreeValuedTruthTable(t *testing.T) {
	states := []tri{-1, 0, 1}
	var as, bs []tri
	for _, x := range states {
		for _, y := range states {
			as = append(as, x)
			bs = append(bs, y)
		}
	}
	a, b := triArray(as), triArray(bs)
	andOut, err := And(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	orOut, err := Or(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if got, want := triOf(andOut, i), refAnd(as[i], bs[i]); got != want {
			t.Fatalf("AND(%d,%d) = %d, want %d", as[i], bs[i], got, want)
		}
		if got, want := triOf(orOut, i), refOr(as[i], bs[i]); got != want {
			t.Fatalf("OR(%d,%d) = %d, want %d", as[i], bs[i], got, want)
		}
	}
}

// Property: byte-wise AND/OR agree with the truth table on random arrays,
// including the nil-validity fast path.
func TestBooleanKernelsProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8, aNulls, bNulls bool) bool {
		n := int(nSmall)%120 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randBoolArray(rng, n, aNulls)
		b := randBoolArray(rng, n, bNulls)
		andOut, err := And(a, b, nil)
		if err != nil {
			return false
		}
		orOut, err := Or(a, b, nil)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if triOf(andOut, i) != refAnd(triOf(a, i), triOf(b, i)) {
				return false
			}
			if triOf(orOut, i) != refOr(triOf(a, i), triOf(b, i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNot(t *testing.T) {
	a := triArray([]tri{1, 0, -1})
	out := Not(a, nil)
	if out.Value(0) || !out.Value(1) || !out.IsNull(2) {
		t.Fatal("NOT wrong")
	}
}

func TestIsNullMask(t *testing.T) {
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	b.Append(1)
	b.AppendNull()
	a := b.Finish()
	m := IsNullMask(a)
	if m.Value(0) || !m.Value(1) || m.NullCount() != 0 {
		t.Fatal("IsNullMask wrong")
	}
	nm := IsNotNullMask(a)
	if !nm.Value(0) || nm.Value(1) {
		t.Fatal("IsNotNullMask wrong")
	}
	// NullArray is all null.
	na := IsNullMask(arrow.NewNull(2))
	if !na.Value(0) || !na.Value(1) {
		t.Fatal("NullArray IsNull wrong")
	}
}

func TestCoalesceBoolToFalse(t *testing.T) {
	a := triArray([]tri{1, -1, 0})
	out := CoalesceBoolToFalse(a)
	if out.NullCount() != 0 || !out.Value(0) || out.Value(1) || out.Value(2) {
		t.Fatal("coalesce wrong")
	}
	// No-null input returned as-is.
	b := triArray([]tri{1, 0})
	if CoalesceBoolToFalse(b) != b {
		t.Fatal("should return same array when no nulls")
	}
}
