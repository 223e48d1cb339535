package compute

import (
	"math"
	"testing"

	"gofusion/internal/arrow"
)

func TestArithBasics(t *testing.T) {
	a := arrow.NewInt64([]int64{10, 20, 30})
	b := arrow.NewInt64([]int64{3, 4, 5})
	cases := []struct {
		op   ArithOp
		want []int64
	}{
		{Add, []int64{13, 24, 35}},
		{Sub, []int64{7, 16, 25}},
		{Mul, []int64{30, 80, 150}},
		{Div, []int64{3, 5, 6}},
		{Mod, []int64{1, 0, 0}},
	}
	for _, c := range cases {
		out, err := Arith(c.op, a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := out.(*arrow.Int64Array)
		for i, w := range c.want {
			if got.Value(i) != w {
				t.Fatalf("%v: got[%d]=%d want %d", c.op, i, got.Value(i), w)
			}
		}
	}
}

func TestArithDivisionByZero(t *testing.T) {
	a := arrow.NewInt64([]int64{1})
	b := arrow.NewInt64([]int64{0})
	if _, err := Arith(Div, a, b, nil); err == nil {
		t.Fatal("integer division by zero must error")
	}
	// Float division by zero yields Inf, not an error.
	fa := arrow.NewFloat64([]float64{1})
	fb := arrow.NewFloat64([]float64{0})
	out, err := Arith(Div, fa, fb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out.(*arrow.Float64Array).Value(0), 1) {
		t.Fatal("float 1/0 should be +Inf")
	}
	// Division by zero in a NULL slot is not an error.
	nb := arrow.NewNumericBuilder[int64](arrow.Int64)
	nb.AppendNull()
	na := nb.Finish()
	if _, err := Arith(Div, na, b, nil); err != nil {
		t.Fatalf("null slot div by zero should not error: %v", err)
	}
}

func TestArithScalarBothSides(t *testing.T) {
	a := arrow.NewInt64([]int64{10, 20})
	out, err := ArithScalar(Sub, a, arrow.Int64Scalar(1), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*arrow.Int64Array).Value(0) != 9 {
		t.Fatal("a - s wrong")
	}
	out, err = ArithScalar(Sub, a, arrow.Int64Scalar(100), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*arrow.Int64Array).Value(1) != 80 {
		t.Fatal("s - a wrong")
	}
	out, err = ArithScalar(Div, a, arrow.Int64Scalar(100), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*arrow.Int64Array).Value(0) != 10 {
		t.Fatal("s / a wrong")
	}
}

func TestDecimalArith(t *testing.T) {
	d2 := arrow.Decimal(12, 2)
	// 1.50 and 2.25
	a := arrow.NewNumeric(d2, []int64{150}, nil)
	b := arrow.NewNumeric(d2, []int64{225}, nil)
	sum, err := Arith(Add, a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DataType().Scale != 2 || sum.(*arrow.Int64Array).Value(0) != 375 {
		t.Fatalf("decimal add wrong: %v", sum)
	}
	prod, err := Arith(Mul, a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1.50*2.25 = 3.3750 at scale 4
	if prod.DataType().Scale != 4 || prod.(*arrow.Int64Array).Value(0) != 33750 {
		t.Fatalf("decimal mul wrong: scale=%d val=%d", prod.DataType().Scale, prod.(*arrow.Int64Array).Value(0))
	}
	if _, err := Arith(Div, a, b, nil); err == nil {
		t.Fatal("decimal division must be rewritten before kernels")
	}
}

func TestNegate(t *testing.T) {
	a := arrow.NewInt64([]int64{5, -3})
	out, err := Negate(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*arrow.Int64Array)
	if got.Value(0) != -5 || got.Value(1) != 3 {
		t.Fatal("negate wrong")
	}
}

func TestCastNumericPaths(t *testing.T) {
	a := arrow.NewInt32([]int32{1, 2, 3})
	out, err := Cast(a, arrow.Int64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*arrow.Int64Array).Value(2) != 3 {
		t.Fatal("int32->int64 wrong")
	}
	f, err := Cast(a, arrow.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.(*arrow.Float64Array).Value(1) != 2.0 {
		t.Fatal("int32->float64 wrong")
	}
}

func TestCastDecimal(t *testing.T) {
	d2 := arrow.Decimal(12, 2)
	a := arrow.NewNumeric(d2, []int64{150, -225}, nil) // 1.50, -2.25
	f, err := Cast(a, arrow.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.(*arrow.Float64Array).Value(0) != 1.5 || f.(*arrow.Float64Array).Value(1) != -2.25 {
		t.Fatal("decimal->float wrong")
	}
	// int -> decimal
	i := arrow.NewInt64([]int64{3})
	d, err := Cast(i, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.(*arrow.Int64Array).Value(0) != 300 {
		t.Fatal("int->decimal wrong")
	}
	// rescale decimal(2) -> decimal(4)
	d4, err := Cast(a, arrow.Decimal(18, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d4.(*arrow.Int64Array).Value(0) != 15000 {
		t.Fatal("decimal rescale wrong")
	}
	// float -> decimal rounds half away from zero on representable values
	fl := arrow.NewFloat64([]float64{1.25, 0.125})
	fd, err := Cast(fl, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fd.(*arrow.Int64Array).Value(0) != 125 || fd.(*arrow.Int64Array).Value(1) != 13 {
		t.Fatalf("float->decimal = %v", fd)
	}
	// decimal -> int truncates scale
	di, err := Cast(a, arrow.Int64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if di.(*arrow.Int64Array).Value(0) != 1 {
		t.Fatal("decimal->int wrong")
	}
}

func TestCastStrings(t *testing.T) {
	s := arrow.NewStringFromSlice([]string{"42", "-7"})
	i, err := Cast(s, arrow.Int64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i.(*arrow.Int64Array).Value(1) != -7 {
		t.Fatal("string->int wrong")
	}
	d, err := Cast(arrow.NewStringFromSlice([]string{"1995-03-15"}), arrow.Date32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arrow.FormatDate32(d.(*arrow.Int32Array).Value(0)) != "1995-03-15" {
		t.Fatal("string->date wrong")
	}
	back, err := Cast(i, arrow.String, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.(*arrow.StringArray).Value(0) != "42" {
		t.Fatal("int->string wrong")
	}
	if _, err := Cast(s, arrow.Date32, nil); err == nil {
		t.Fatal("bad date parse must error")
	}
}

func TestCastNullArray(t *testing.T) {
	out, err := Cast(arrow.NewNull(3), arrow.Int64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || out.NullCount() != 3 {
		t.Fatal("null cast wrong")
	}
}

func TestCastScalar(t *testing.T) {
	s, err := CastScalar(arrow.Int64Scalar(5), arrow.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if s.AsFloat64() != 5.0 {
		t.Fatal("scalar cast wrong")
	}
	n, err := CastScalar(arrow.NullScalar(arrow.Int64), arrow.String)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Null {
		t.Fatal("null scalar cast must stay null")
	}
}

// A narrow integer array under an Int64 scalar computes in Int64, also when
// the scalar is NULL (an all-null Int64 array, not one of the array's type).
func TestArithScalarWidensNarrowIntegers(t *testing.T) {
	b := arrow.NewNumericBuilder[int16](arrow.Int16)
	b.Append(32767)
	b.AppendNull()
	a := b.Finish()
	out, err := ArithScalar(Add, a, arrow.NewScalar(arrow.Int64, int64(1)), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(*arrow.Int64Array)
	if !ok || got.Value(0) != 32768 || !got.IsNull(1) {
		t.Fatalf("int16(32767) + int64(1) = %v", out)
	}
	out, err = ArithScalar(Sub, a, arrow.NewScalar(arrow.Int64, int64(-1)), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out.(*arrow.Int64Array); !ok || got.Value(0) != -32768 {
		t.Fatalf("int64(-1) - int16(32767) = %v", out)
	}
	out, err = ArithScalar(Mul, a, arrow.NullScalar(arrow.Int64), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.DataType().Equal(arrow.Int64) || out.NullCount() != 2 {
		t.Fatalf("int16 * NULL::int64 = %v of %s", out, out.DataType())
	}
	// Same-width operands still compute (and wrap) in their own type.
	out, err = ArithScalar(Add, a, arrow.NewScalar(arrow.Int16, int16(1)), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := out.(*arrow.Int16Array); !ok || got.Value(0) != -32768 {
		t.Fatalf("int16(32767) + int16(1) = %v", out)
	}
}
