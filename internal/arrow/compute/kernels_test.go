package compute

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"gofusion/internal/arrow"
)

// This file checks the predicate and selection kernels against per-row
// references, at every array length from 0 to 130 so that every length
// mod 8 and mod 64 is covered.

// kernelTypes are the types the predicate kernels dispatch on, one or
// more per physical kind.
var kernelTypes = []*arrow.DataType{
	arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
	arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
	arrow.Float32, arrow.Float64, arrow.Date32, arrow.Decimal(10, 2),
	arrow.String, arrow.Boolean,
}

var allOps = []CmpOp{Eq, Neq, Lt, LtEq, Gt, GtEq}

const long64 = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcde"

// kernelStrings mixes lengths either side of the eight-byte head the
// string kernels compare first, and 64-byte strings that differ only in
// their last byte.
var kernelStrings = []string{"", "a", "b", "ab", "abcdefgh", "abcdefgi", "abcdefghi", "abcdefghij", long64 + "x", long64 + "y"}

func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }

// randValue draws a non-NULL value of t from a small domain holding the
// type's extremes, so equal values are common.
func randValue(rng *rand.Rand, t *arrow.DataType) arrow.Scalar {
	negZero := math.Copysign(0, -1)
	var v any
	switch t.ID {
	case arrow.INT8:
		v = pick[int8](rng, math.MinInt8, -1, 0, 1, 2, math.MaxInt8)
	case arrow.INT16:
		v = pick[int16](rng, math.MinInt16, -1, 0, 1, 2, math.MaxInt16)
	case arrow.INT32, arrow.DATE32:
		v = pick[int32](rng, math.MinInt32, -1, 0, 1, 2, math.MaxInt32)
	case arrow.INT64, arrow.DECIMAL:
		v = pick[int64](rng, math.MinInt64, -1, 0, 1, 150, math.MaxInt64)
	case arrow.UINT8:
		v = pick[uint8](rng, 0, 1, 2, math.MaxUint8)
	case arrow.UINT16:
		v = pick[uint16](rng, 0, 1, 2, math.MaxUint16)
	case arrow.UINT32:
		v = pick[uint32](rng, 0, 1, 2, math.MaxUint32)
	case arrow.UINT64:
		v = pick[uint64](rng, 0, 1, 2, 1<<63, 1<<63+1, math.MaxUint64)
	case arrow.FLOAT32:
		v = pick(rng, float32(-1), 0, float32(negZero), 1, 2.5, float32(math.NaN()), float32(math.Inf(1)))
	case arrow.FLOAT64:
		v = pick(rng, -1, 0, negZero, 1, 2.5, math.NaN(), math.Inf(-1))
	case arrow.STRING:
		v = pick(rng, kernelStrings...)
	case arrow.BOOL:
		v = rng.Intn(2) == 0
	default:
		panic("randValue: " + t.String())
	}
	return arrow.NewScalar(t, v)
}

// randArray builds n values of t, each NULL with probability nullPct%.
func randArray(rng *rand.Rand, t *arrow.DataType, n, nullPct int) arrow.Array {
	b := arrow.NewBuilder(t)
	for i := 0; i < n; i++ {
		if rng.Intn(100) < nullPct {
			b.AppendNull()
		} else {
			b.AppendScalar(randValue(rng, t))
		}
	}
	return b.Finish()
}

// refCompare is `x op y` for two non-NULL values of one type, in SQL:
// floats compare as IEEE numbers (NaN equals nothing, -0 equals +0),
// unsigned integers as unsigned, FALSE < TRUE.
func refCompare(op CmpOp, x, y arrow.Scalar) bool {
	var c int
	switch x.Type.ID {
	case arrow.FLOAT32, arrow.FLOAT64:
		a, b := x.AsFloat64(), y.AsFloat64()
		switch op {
		case Eq:
			return a == b
		case Neq:
			return a != b
		case Lt:
			return a < b
		case LtEq:
			return a <= b
		case Gt:
			return a > b
		}
		return a >= b
	case arrow.UINT64:
		c = cmp.Compare(uint64(x.AsInt64()), uint64(y.AsInt64()))
	case arrow.STRING:
		c = strings.Compare(x.AsString(), y.AsString())
	case arrow.BOOL:
		c = b2i(x.AsBool()) - b2i(y.AsBool())
	default:
		c = cmp.Compare(x.AsInt64(), y.AsInt64())
	}
	switch op {
	case Eq:
		return c == 0
	case Neq:
		return c != 0
	case Lt:
		return c < 0
	case LtEq:
		return c <= 0
	case Gt:
		return c > 0
	}
	return c >= 0
}

// checkBools reports the first slot of got that differs from want, a
// NULL want meaning a NULL slot.
func checkBools(got *arrow.BoolArray, want []*bool) error {
	if got.Len() != len(want) {
		return fmt.Errorf("length %d, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		switch {
		case w == nil && !got.IsNull(i):
			return fmt.Errorf("slot %d: %v, want NULL", i, got.Value(i))
		case w != nil && got.IsNull(i):
			return fmt.Errorf("slot %d: NULL, want %v", i, *w)
		case w != nil && got.Value(i) != *w:
			return fmt.Errorf("slot %d: %v, want %v", i, got.Value(i), *w)
		}
	}
	return nil
}

func boolp(b bool) *bool { return &b }

// checkCompare checks Compare(op, a, b) against refCompare.
func checkCompare(op CmpOp, a, b arrow.Array, buf *Buf) error {
	got, err := Compare(op, a, b, buf)
	if err != nil {
		return err
	}
	want := make([]*bool, a.Len())
	for i := range want {
		if a.IsValid(i) && b.IsValid(i) {
			want[i] = boolp(refCompare(op, a.GetScalar(i), b.GetScalar(i)))
		}
	}
	return checkBools(got, want)
}

// checkCompareScalar checks CompareScalar(op, a, s) against refCompare.
func checkCompareScalar(op CmpOp, a arrow.Array, s arrow.Scalar, buf *Buf) error {
	got, err := CompareScalar(op, a, s, buf)
	if err != nil {
		return err
	}
	want := make([]*bool, a.Len())
	for i := range want {
		if a.IsValid(i) && !s.Null {
			want[i] = boolp(refCompare(op, a.GetScalar(i), s))
		}
	}
	return checkBools(got, want)
}

// Compare and CompareScalar agree with refCompare for every operator and
// kind, with NULLs on either side and a NULL scalar.
func TestCompareMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := new(Buf)
	for _, typ := range kernelTypes {
		for n := 0; n <= 130; n++ {
			a, b := randArray(rng, typ, n, 20), randArray(rng, typ, n, 20)
			s := randValue(rng, typ)
			for _, op := range allOps {
				for _, err := range []error{
					checkCompare(op, a, b, nil),
					checkCompare(op, a, b, buf),
					checkCompareScalar(op, a, s, nil),
					checkCompareScalar(op, a, s, buf),
					checkCompareScalar(op, a, arrow.NullScalar(typ), nil),
				} {
					if err != nil {
						t.Fatalf("%s n=%d %s (scalar %v): %v", typ, n, op, s, err)
					}
				}
			}
		}
	}
}

// sameSlot reports whether slot i of a and slot j of b hold the same
// value, NULL included; floats compare by bits, lists element-wise.
func sameSlot(a arrow.Array, i int, b arrow.Array, j int) bool {
	if a.IsNull(i) || b.IsNull(j) {
		return a.IsNull(i) == b.IsNull(j)
	}
	switch x := a.(type) {
	case *arrow.ListArray:
		xs, ys := x.ValueArray(i), b.(*arrow.ListArray).ValueArray(j)
		if xs.Len() != ys.Len() {
			return false
		}
		for k := 0; k < xs.Len(); k++ {
			if !sameSlot(xs, k, ys, k) {
				return false
			}
		}
		return true
	case *arrow.NullArray:
		return true
	}
	x, y := a.GetScalar(i), b.GetScalar(j)
	if a.DataType().IsFloat() {
		return math.Float64bits(x.AsFloat64()) == math.Float64bits(y.AsFloat64())
	}
	return x.Equal(y)
}

// maskKinds are the masks a filter is checked with, by name.
var maskKinds = []struct {
	name string
	make func(rng *rand.Rand, n int) *arrow.BoolArray
}{
	{"random", func(rng *rand.Rand, n int) *arrow.BoolArray {
		return randArray(rng, arrow.Boolean, n, 25).(*arrow.BoolArray)
	}},
	{"all-true", func(_ *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(arrow.NewBitmapSet(n), nil, n)
	}},
	{"all-false", func(_ *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(arrow.NewBitmap(n), nil, n)
	}},
	{"all-null", func(_ *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(arrow.NewBitmapSet(n), arrow.NewBitmap(n), n)
	}},
	{"alternating", func(_ *rand.Rand, n int) *arrow.BoolArray {
		vs := make([]bool, n)
		for i := range vs {
			vs[i] = i%2 == 0
		}
		return arrow.NewBoolFromSlice(vs)
	}},
	{"long-runs", func(rng *rand.Rand, n int) *arrow.BoolArray {
		vs := make([]bool, n)
		on := rng.Intn(2) == 0
		for i := range vs {
			if rng.Intn(20) == 0 {
				on = !on
			}
			vs[i] = on
		}
		return arrow.NewBoolFromSlice(vs)
	}},
}

// randList builds n lists of 0..3 int64s, some NULL.
func randList(rng *rand.Rand, n int) arrow.Array {
	offsets := []int32{0}
	valid := arrow.NewBitmap(n)
	for i := 0; i < n; i++ {
		if rng.Intn(5) != 0 {
			valid.Set(i)
		}
		offsets = append(offsets, offsets[i]+int32(rng.Intn(4)))
	}
	return arrow.NewList(arrow.Int64, offsets, randArray(rng, arrow.Int64, int(offsets[n]), 20), valid)
}

// checkFilterBatch checks FilterBatch(b, mask) against a per-row copy of
// the rows the mask keeps.
func checkFilterBatch(b *arrow.RecordBatch, mask *arrow.BoolArray) error {
	got, err := FilterBatch(b, mask)
	if err != nil {
		return err
	}
	var keep []int
	for i := 0; i < mask.Len(); i++ {
		if mask.IsValid(i) && mask.Value(i) {
			keep = append(keep, i)
		}
	}
	if got.NumRows() != len(keep) || got.NumCols() != b.NumCols() {
		return fmt.Errorf("%d rows x %d columns, want %d x %d", got.NumRows(), got.NumCols(), len(keep), b.NumCols())
	}
	for c := 0; c < b.NumCols(); c++ {
		col := got.Column(c)
		if col.Len() != len(keep) || !col.DataType().Equal(b.Column(c).DataType()) {
			return fmt.Errorf("column %d: %s of %d rows", c, col.DataType(), col.Len())
		}
		for j, i := range keep {
			if !sameSlot(col, j, b.Column(c), i) {
				return fmt.Errorf("column %d (%s) row %d: %v, want row %d's %v", c, col.DataType(), j, col.GetScalar(j), i, b.Column(c).GetScalar(i))
			}
		}
	}
	return nil
}

// FilterBatch keeps exactly the rows a mask selects, in order, for every
// column type (a nested one included), every mask shape and a batch
// without columns.
func TestFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	types := append(append([]*arrow.DataType(nil), kernelTypes...), arrow.Null)
	for n := 0; n <= 130; n++ {
		cols := make([]arrow.Array, 0, len(types)+1)
		for _, typ := range types {
			if typ.ID == arrow.NULL {
				cols = append(cols, arrow.NewNull(n))
				continue
			}
			cols = append(cols, randArray(rng, typ, n, 20))
		}
		cols = append(cols, randList(rng, n))
		batch := arrow.NewRecordBatchWithRows(nil, cols, n)
		empty := arrow.NewRecordBatchWithRows(arrow.NewSchema(), nil, n)
		for _, mk := range maskKinds {
			mask := mk.make(rng, n)
			if err := checkFilterBatch(batch, mask); err != nil {
				t.Fatalf("n=%d %s mask: %v", n, mk.name, err)
			}
			if err := checkFilterBatch(empty, mask); err != nil {
				t.Fatalf("n=%d %s mask, no columns: %v", n, mk.name, err)
			}
		}
		var le *LengthError
		if _, err := FilterBatch(batch, maskKinds[0].make(rng, n+1)); !errors.As(err, &le) {
			t.Fatalf("n=%d: mask of %d rows gave %v, want a *LengthError", n, n+1, err)
		}
	}
}

// refIn is `v [NOT] IN (items)` per SQL for a non-NULL v, nil meaning
// NULL: an item equal to v decides, else a NULL item makes it NULL.
func refIn(v arrow.Scalar, items []arrow.Scalar, negated bool) *bool {
	hasNull := false
	for _, it := range items {
		if it.Null {
			hasNull = true
		} else if refCompare(Eq, v, it) {
			return boolp(!negated)
		}
	}
	if hasNull {
		return nil
	}
	return boolp(negated)
}

func checkInSet(a arrow.Array, items []arrow.Scalar, negated bool, buf *Buf) error {
	set, ok := NewInSet(a.DataType(), items, negated)
	if !ok {
		return fmt.Errorf("no IN set for %s", a.DataType())
	}
	got, err := set.Eval(a, buf)
	if err != nil {
		return err
	}
	want := make([]*bool, a.Len())
	for i := range want {
		if a.IsValid(i) {
			want[i] = refIn(a.GetScalar(i), items, negated)
		}
	}
	return checkBools(got, want)
}

// An IN set of items of the column's own type agrees with refIn for every
// kind, list lengths either side of maxListProbe, NULL items and
// duplicates included.
func TestInSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := new(Buf)
	for _, typ := range kernelTypes {
		for n := 0; n <= 130; n++ {
			a := randArray(rng, typ, n, 20)
			items := make([]arrow.Scalar, rng.Intn(2*maxListProbe+2))
			for i := range items {
				if rng.Intn(8) == 0 {
					items[i] = arrow.NullScalar(typ)
				} else {
					items[i] = randValue(rng, typ)
				}
			}
			for _, negated := range []bool{false, true} {
				if err := checkInSet(a, items, negated, buf); err != nil {
					t.Fatalf("%s n=%d %v negated=%v: %v", typ, n, items, negated, err)
				}
			}
		}
	}
}

// Items of another type join the set as the column's type only when they
// convert there and back unchanged; any other can equal no value.
func TestInSetItemConversion(t *testing.T) {
	ints := arrow.NewInt64([]int64{1, 2, 3})
	dec := arrow.NewNumeric(arrow.Decimal(10, 2), []int64{150, 200, 155}, nil)
	big := arrow.NewNumeric(arrow.Uint64, []uint64{1<<63 + 5, 5, math.MaxUint64}, nil)
	i8 := arrow.NewNumeric(arrow.Int8, []int8{44, 127, -1}, nil)
	strs := arrow.NewStringFromSlice([]string{long64 + "x", long64 + "y", "5"})
	f64 := arrow.Float64Scalar
	cases := []struct {
		a     arrow.Array
		items []arrow.Scalar
		want  []bool
	}{
		{ints, []arrow.Scalar{arrow.Int64Scalar(1), f64(2.5)}, []bool{true, false, false}},
		{ints, []arrow.Scalar{f64(3), f64(1e30)}, []bool{false, false, true}},
		{ints, nil, []bool{false, false, false}},
		{ints, []arrow.Scalar{arrow.Int64Scalar(2), arrow.Int64Scalar(2)}, []bool{false, true, false}},
		{dec, []arrow.Scalar{f64(1.5), f64(1.555), arrow.Int64Scalar(2)}, []bool{true, true, false}},
		{dec, []arrow.Scalar{arrow.NewScalar(arrow.Decimal(4, 3), int64(1555))}, []bool{false, false, false}},
		{big, []arrow.Scalar{arrow.NewScalar(arrow.Uint64, uint64(1<<63+5)), arrow.Int64Scalar(5)}, []bool{true, true, false}},
		{i8, []arrow.Scalar{arrow.Int64Scalar(300), arrow.Int64Scalar(127)}, []bool{false, true, false}},
		{strs, []arrow.Scalar{arrow.StringScalar(long64 + "y"), arrow.Int64Scalar(5)}, []bool{false, true, true}},
	}
	for i, c := range cases {
		set, ok := NewInSet(c.a.DataType(), c.items, false)
		if !ok {
			t.Fatalf("case %d: no set", i)
		}
		got, err := set.Eval(c.a, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*bool, len(c.want))
		for j, w := range c.want {
			want[j] = boolp(w)
		}
		if err := checkBools(got, want); err != nil {
			t.Fatalf("case %d (%s IN %v): %v", i, c.a.DataType(), c.items, err)
		}
	}
	if _, ok := NewInSet(arrow.Interval, nil, false); ok {
		t.Fatal("an interval column has no typed IN probe")
	}
}

// The string matchers and IsNullMask agree with per-row references.
func TestMatchKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	like, err := CompileLike("%b%", true)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("b")
	for n := 0; n <= 130; n++ {
		a := randArray(rng, arrow.String, n, 20).(*arrow.StringArray)
		want := make([]*bool, n)
		for i := range want {
			if a.IsValid(i) {
				want[i] = boolp(!strings.Contains(a.Value(i), "b"))
			}
		}
		if err := checkBools(like.Eval(a), want); err != nil {
			t.Fatalf("n=%d NOT LIKE: %v", n, err)
		}
		if err := checkBools(RegexpMatch(a, re, true), want); err != nil {
			t.Fatalf("n=%d NOT REGEXP: %v", n, err)
		}
		nulls := make([]*bool, n)
		for i := range nulls {
			nulls[i] = boolp(a.IsNull(i))
		}
		if err := checkBools(IsNullMask(a), nulls); err != nil {
			t.Fatalf("n=%d IS NULL: %v", n, err)
		}
	}
}

// fuzzReader turns fuzz bytes into values; past the end it reads zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) bytes(n int) []byte {
	out := make([]byte, 8)
	copy(out, r.b[:min(n, len(r.b))])
	r.b = r.b[min(n, len(r.b)):]
	return out
}

func (r *fuzzReader) u64(n int) uint64 { return binary.LittleEndian.Uint64(r.bytes(n)) }

// value reads a value of t, or NULL.
func (r *fuzzReader) value(t *arrow.DataType) arrow.Scalar {
	if r.u64(1)%5 == 0 {
		return arrow.NullScalar(t)
	}
	var v any
	switch t.ID {
	case arrow.INT8:
		v = int8(r.u64(1))
	case arrow.INT16:
		v = int16(r.u64(2))
	case arrow.INT32, arrow.DATE32:
		v = int32(r.u64(4))
	case arrow.INT64, arrow.DECIMAL:
		v = int64(r.u64(8))
	case arrow.UINT8:
		v = uint8(r.u64(1))
	case arrow.UINT16:
		v = uint16(r.u64(2))
	case arrow.UINT32:
		v = uint32(r.u64(4))
	case arrow.UINT64:
		v = r.u64(8)
	case arrow.FLOAT32:
		v = math.Float32frombits(uint32(r.u64(4)))
	case arrow.FLOAT64:
		v = math.Float64frombits(r.u64(8))
	case arrow.STRING:
		v = kernelStrings[r.u64(1)%uint64(len(kernelStrings))]
	case arrow.BOOL:
		v = r.u64(1)%2 == 0
	}
	return arrow.NewScalar(t, v)
}

// FuzzFilterKernels decodes a type, an operator, two columns, a literal,
// a list of IN items and a mask from the input; every predicate kernel
// and FilterBatch must match its per-row reference and never panic.
func FuzzFilterKernels(f *testing.F) {
	f.Add([]byte{0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{8, 3, 40, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{12, 5, 70, 1, 3, 2, 9, 8, 7, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		typ := kernelTypes[r.u64(1)%uint64(len(kernelTypes))]
		op := allOps[r.u64(1)%uint64(len(allOps))]
		n := int(r.u64(1) % 131)
		ab, bb := arrow.NewBuilder(typ), arrow.NewBuilder(typ)
		mb := arrow.NewBoolBuilder()
		for i := 0; i < n; i++ {
			ab.AppendScalar(r.value(typ))
			bb.AppendScalar(r.value(typ))
			mb.AppendScalar(r.value(arrow.Boolean))
		}
		a, b, mask := ab.Finish(), bb.Finish(), mb.Finish().(*arrow.BoolArray)
		s := r.value(typ)
		items := make([]arrow.Scalar, r.u64(1)%12)
		for i := range items {
			items[i] = r.value(typ)
		}
		for _, err := range []error{
			checkCompare(op, a, b, nil),
			checkCompareScalar(op, a, s, nil),
			checkInSet(a, items, op == Neq, nil),
			checkFilterBatch(arrow.NewRecordBatchWithRows(nil, []arrow.Array{a, b}, n), mask),
		} {
			if err != nil {
				t.Fatalf("%s %s n=%d: %v", typ, op, n, err)
			}
		}
	})
}
