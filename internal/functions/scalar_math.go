package functions

import (
	"fmt"
	"math"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// numericAsFloat converts any numeric array to float64 values.
func numericAsFloat(a arrow.Array) (*arrow.Float64Array, error) {
	out, err := compute.Cast(a, arrow.Float64, nil)
	if err != nil {
		return nil, err
	}
	return out.(*arrow.Float64Array), nil
}

// floatUnary builds a float64 -> float64 elementwise scalar function.
func floatUnary(name string, f func(float64) float64) *ScalarFunc {
	return &ScalarFunc{
		Name:       name,
		ReturnType: fixedType(arrow.Float64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			if len(args) != 1 {
				return arrow.Datum{}, fmt.Errorf("%s takes 1 argument", name)
			}
			in, err := numericAsFloat(args[0].ToArray(numRows))
			if err != nil {
				return arrow.Datum{}, err
			}
			vals := make([]float64, in.Len())
			for i, v := range in.Values() {
				vals[i] = f(v)
			}
			return arrow.ArrayDatum(arrow.NewNumeric(arrow.Float64, vals, in.Validity().Clone())), nil
		},
	}
}

func registerMath(r *Registry) {
	r.RegisterScalar(&ScalarFunc{
		Name:       "abs",
		ReturnType: sameAsArg(0),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			a := args[0].ToArray(numRows)
			switch arr := a.(type) {
			case *arrow.Int64Array:
				vals := make([]int64, arr.Len())
				for i, v := range arr.Values() {
					if v < 0 {
						v = -v
					}
					vals[i] = v
				}
				return arrow.ArrayDatum(arrow.NewNumeric(arr.DataType(), vals, arr.Validity().Clone())), nil
			case *arrow.Float64Array:
				vals := make([]float64, arr.Len())
				for i, v := range arr.Values() {
					vals[i] = math.Abs(v)
				}
				return arrow.ArrayDatum(arrow.NewNumeric(arrow.Float64, vals, arr.Validity().Clone())), nil
			case *arrow.Int32Array:
				vals := make([]int32, arr.Len())
				for i, v := range arr.Values() {
					if v < 0 {
						v = -v
					}
					vals[i] = v
				}
				return arrow.ArrayDatum(arrow.NewNumeric(arr.DataType(), vals, arr.Validity().Clone())), nil
			}
			return arrow.Datum{}, fmt.Errorf("abs: unsupported type %s", a.DataType())
		},
	})

	r.RegisterScalar(floatUnary("sqrt", math.Sqrt))
	r.RegisterScalar(floatUnary("ln", math.Log))
	r.RegisterScalar(floatUnary("log10", math.Log10))
	r.RegisterScalar(floatUnary("log2", math.Log2))
	r.RegisterScalar(floatUnary("exp", math.Exp))
	r.RegisterScalar(floatUnary("sin", math.Sin))
	r.RegisterScalar(floatUnary("cos", math.Cos))
	r.RegisterScalar(floatUnary("tan", math.Tan))
	r.RegisterScalar(floatUnary("ceil", math.Ceil))
	r.RegisterScalar(floatUnary("floor", math.Floor))
	r.RegisterScalar(floatUnary("sign", func(v float64) float64 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		}
		return 0
	}))

	r.RegisterScalar(&ScalarFunc{
		Name:       "round",
		ReturnType: fixedType(arrow.Float64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := numericAsFloat(args[0].ToArray(numRows))
			if err != nil {
				return arrow.Datum{}, err
			}
			scale := 0.0
			if len(args) > 1 {
				s := args[1].ScalarValue()
				if !s.Null {
					scale = s.AsFloat64()
				}
			}
			m := math.Pow10(int(scale))
			vals := make([]float64, in.Len())
			for i, v := range in.Values() {
				vals[i] = math.Round(v*m) / m
			}
			return arrow.ArrayDatum(arrow.NewNumeric(arrow.Float64, vals, in.Validity().Clone())), nil
		},
	})

	r.RegisterScalar(&ScalarFunc{
		Name:       "power",
		ReturnType: fixedType(arrow.Float64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			base, err := numericAsFloat(args[0].ToArray(numRows))
			if err != nil {
				return arrow.Datum{}, err
			}
			exp, err := numericAsFloat(args[1].ToArray(numRows))
			if err != nil {
				return arrow.Datum{}, err
			}
			vals := make([]float64, base.Len())
			for i := range vals {
				vals[i] = math.Pow(base.Value(i), exp.Value(i))
			}
			var valid arrow.Bitmap
			if base.NullCount() > 0 || exp.NullCount() > 0 {
				valid = arrow.NewBitmap(base.Len())
				valid.And(base.Validity(), exp.Validity(), base.Len())
			}
			return arrow.ArrayDatum(arrow.NewNumeric(arrow.Float64, vals, valid)), nil
		},
	})
	r.RegisterScalar(&ScalarFunc{Name: "pow", ReturnType: fixedType(arrow.Float64),
		Eval: mustScalar(r, "power").Eval})

	r.RegisterScalar(&ScalarFunc{
		Name:       "truncate",
		ReturnType: fixedType(arrow.Float64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := numericAsFloat(args[0].ToArray(numRows))
			if err != nil {
				return arrow.Datum{}, err
			}
			vals := make([]float64, in.Len())
			for i, v := range in.Values() {
				vals[i] = math.Trunc(v)
			}
			return arrow.ArrayDatum(arrow.NewNumeric(arrow.Float64, vals, in.Validity().Clone())), nil
		},
	})
}

// mustScalar fetches an already-registered scalar function (registration
// order dependency within this package).
func mustScalar(r *Registry, name string) *ScalarFunc {
	f, ok := r.Scalar(name)
	if !ok {
		panic("functions: missing " + name)
	}
	return f
}
