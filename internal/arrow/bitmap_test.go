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

// TestSliceBitmapMatchesBitwise checks sliceBitmap (and the null count taken
// from it with CountSet) against a per-bit reference for offsets 0-17 and
// lengths 0-130 over a random, a nil and an all-set source.
func TestSliceBitmapMatchesBitwise(t *testing.T) {
	const maxOff, maxLen = 17, 130
	rng := rand.New(rand.NewSource(11))
	random := NewBitmap(maxOff + maxLen)
	for i := range random {
		random[i] = byte(rng.Intn(256))
	}
	sources := map[string]Bitmap{"random": random, "nil": nil, "all-set": NewBitmapSet(maxOff + maxLen)}
	for name, src := range sources {
		for off := 0; off <= maxOff; off++ {
			for n := 0; n <= maxLen; n++ {
				got := sliceBitmap(src, off, n)
				if src == nil {
					if got != nil {
						t.Fatalf("%s off=%d n=%d: slice of a nil bitmap is not nil", name, off, n)
					}
					continue
				}
				if len(got) != (n+7)/8 {
					t.Fatalf("%s off=%d n=%d: %d bytes", name, off, n, len(got))
				}
				nulls := 0
				for i := 0; i < len(got)*8; i++ {
					want := i < n && src.Get(off+i)
					if got.Get(i) != want {
						t.Fatalf("%s off=%d n=%d: bit %d is %v", name, off, n, i, got.Get(i))
					}
					if i < n && !want {
						nulls++
					}
				}
				if c := n - got.CountSet(n); c != nulls {
					t.Fatalf("%s off=%d n=%d: %d nulls, want %d", name, off, n, c, nulls)
				}
			}
		}
	}
}

// TestCopyBitsMatchesBitwise copies into a destination that already holds
// bits at unaligned offsets, as the run-gather kernel does: the copied
// range must match the source and every bit outside it must keep its value.
func TestCopyBitsMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewBitmap(200)
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	for _, fill := range []byte{0x00, 0xFF, 0x5A} {
		for dstOff := 0; dstOff <= 9; dstOff++ {
			for srcOff := 0; srcOff <= 17; srcOff++ {
				for n := 0; n <= 130; n++ {
					dst := NewBitmap(160)
					for i := range dst {
						dst[i] = fill
					}
					before := dst.Clone()
					dst.CopyBits(dstOff, src, srcOff, n)
					for i := 0; i < 160; i++ {
						want := before.Get(i)
						if i >= dstOff && i < dstOff+n {
							want = src.Get(srcOff + i - dstOff)
						}
						if dst.Get(i) != want {
							t.Fatalf("fill=%#x dst=%d src=%d n=%d: bit %d is %v", fill, dstOff, srcOff, n, i, dst.Get(i))
						}
					}
				}
			}
		}
	}
}
