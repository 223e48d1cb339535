package arrow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(20)
	for i := 0; i < 20; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d should start clear", i)
		}
	}
	b.Set(3)
	b.Set(19)
	if !b.Get(3) || !b.Get(19) || b.Get(4) {
		t.Fatal("set/get mismatch")
	}
	if got := b.CountSet(20); got != 2 {
		t.Fatalf("CountSet = %d, want 2", got)
	}
	b.Clear(3)
	if b.Get(3) {
		t.Fatal("clear failed")
	}
	b.Put(5, true)
	b.Put(19, false)
	if !b.Get(5) || b.Get(19) {
		t.Fatal("put failed")
	}
}

func TestBitmapNilAllValid(t *testing.T) {
	var b Bitmap
	if !b.Get(0) || !b.Get(1000) {
		t.Fatal("nil bitmap must read as all-set")
	}
	if b.CountSet(37) != 37 {
		t.Fatal("nil bitmap CountSet must equal n")
	}
}

func TestNewBitmapSetTrailingBits(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		b := NewBitmapSet(n)
		if got := b.CountSet(n); got != n {
			t.Fatalf("NewBitmapSet(%d).CountSet = %d", n, got)
		}
	}
}

// Property: CountSet agrees with a reference bool-slice implementation for
// arbitrary set/clear sequences.
func TestBitmapCountSetProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(n)
		ref := make([]bool, n)
		for k := 0; k < 3*n; k++ {
			i := rng.Intn(n)
			v := rng.Intn(2) == 0
			b.Put(i, v)
			ref[i] = v
		}
		want := 0
		for i, v := range ref {
			if v != b.Get(i) {
				return false
			}
			if v {
				want++
			}
		}
		return b.CountSet(n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: And matches element-wise reference, including nil operands.
func TestBitmapAndProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8, xNil, yNil bool) bool {
		n := int(nSmall)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		var x, y Bitmap
		if !xNil {
			x = NewBitmap(n)
			for i := 0; i < n; i++ {
				x.Put(i, rng.Intn(2) == 0)
			}
		}
		if !yNil {
			y = NewBitmap(n)
			for i := 0; i < n; i++ {
				y.Put(i, rng.Intn(2) == 0)
			}
		}
		out := NewBitmap(n)
		out.And(x, y, n)
		for i := 0; i < n; i++ {
			if out.Get(i) != (x.Get(i) && y.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapClone(t *testing.T) {
	var nilB Bitmap
	if nilB.Clone() != nil {
		t.Fatal("nil clone must stay nil")
	}
	b := NewBitmap(16)
	b.Set(2)
	c := b.Clone()
	c.Set(3)
	if b.Get(3) {
		t.Fatal("clone must not alias")
	}
	if !c.Get(2) {
		t.Fatal("clone must copy bits")
	}
}

// TestBitmapSetRange compares SetRange with per-bit Set over every range
// of a bitmap long enough to have a whole-word middle, on top of bits
// that are already set.
func TestBitmapSetRange(t *testing.T) {
	const n = 200
	for from := 0; from <= n; from++ {
		for to := from; to <= n; to++ {
			got, want := NewBitmap(n), NewBitmap(n)
			got.Set(3)
			want.Set(3)
			got.SetRange(from, to)
			for i := from; i < to; i++ {
				want.Set(i)
			}
			for i := 0; i < n; i++ {
				if got.Get(i) != want.Get(i) {
					t.Fatalf("SetRange(%d, %d): bit %d is %v", from, to, i, got.Get(i))
				}
			}
		}
	}
}
