package functions

import (
	"fmt"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// widestType finds the common type of a set of argument types.
func widestType(args []*arrow.DataType) (*arrow.DataType, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("functions: no arguments")
	}
	out := args[0]
	for _, t := range args[1:] {
		if out.ID == arrow.NULL {
			out = t
			continue
		}
		if t.ID == arrow.NULL || out.Equal(t) {
			continue
		}
		switch {
		case out.IsNumeric() && t.IsNumeric():
			if out.IsFloat() || t.IsFloat() {
				out = arrow.Float64
			} else if out.ID == arrow.DECIMAL || t.ID == arrow.DECIMAL {
				s := out.Scale
				if t.Scale > s {
					s = t.Scale
				}
				out = arrow.Decimal(18, s)
			} else if t.BitWidth() > out.BitWidth() {
				out = t
			}
		default:
			return nil, fmt.Errorf("functions: incompatible argument types %s and %s", out, t)
		}
	}
	return out, nil
}

func registerConditional(r *Registry) {
	r.RegisterScalar(&ScalarFunc{
		Name:       "coalesce",
		ReturnType: widestType,
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			types := make([]*arrow.DataType, len(args))
			for i, a := range args {
				types[i] = a.DataType()
			}
			out, err := widestType(types)
			if err != nil {
				return arrow.Datum{}, err
			}
			cols := make([]arrow.Array, len(args))
			for i, a := range args {
				arr := a.ToArray(numRows)
				if !arr.DataType().Equal(out) {
					arr, err = compute.Cast(arr, out, nil)
					if err != nil {
						return arrow.Datum{}, err
					}
				}
				cols[i] = arr
			}
			b := arrow.NewBuilder(out)
			for i := 0; i < numRows; i++ {
				appended := false
				for _, c := range cols {
					if c.IsValid(i) {
						b.AppendFrom(c, i)
						appended = true
						break
					}
				}
				if !appended {
					b.AppendNull()
				}
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})
	co := mustScalar(r, "coalesce")
	r.RegisterScalar(&ScalarFunc{Name: "ifnull", ReturnType: co.ReturnType, Eval: co.Eval})
	r.RegisterScalar(&ScalarFunc{Name: "nvl", ReturnType: co.ReturnType, Eval: co.Eval})

	r.RegisterScalar(&ScalarFunc{
		Name:       "nullif",
		ReturnType: sameAsArg(0),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			if len(args) != 2 {
				return arrow.Datum{}, fmt.Errorf("nullif takes 2 arguments")
			}
			a := args[0].ToArray(numRows)
			bArr := args[1].ToArray(numRows)
			eq, err := compute.Compare(compute.Eq, a, bArr, nil)
			if err != nil {
				return arrow.Datum{}, err
			}
			out := arrow.NewBuilder(a.DataType())
			for i := 0; i < numRows; i++ {
				if eq.IsValid(i) && eq.Value(i) {
					out.AppendNull()
				} else {
					out.AppendFrom(a, i)
				}
			}
			return arrow.ArrayDatum(out.Finish()), nil
		},
	})

	minmaxN := func(name string, wantMax bool) *ScalarFunc {
		return &ScalarFunc{
			Name:       name,
			ReturnType: widestType,
			Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
				types := make([]*arrow.DataType, len(args))
				for i, a := range args {
					types[i] = a.DataType()
				}
				out, err := widestType(types)
				if err != nil {
					return arrow.Datum{}, err
				}
				cols := make([]arrow.Array, len(args))
				for i, a := range args {
					arr := a.ToArray(numRows)
					if !arr.DataType().Equal(out) {
						arr, err = compute.Cast(arr, out, nil)
						if err != nil {
							return arrow.Datum{}, err
						}
					}
					cols[i] = arr
				}
				b := arrow.NewBuilder(out)
				for i := 0; i < numRows; i++ {
					best := -1
					for c := range cols {
						if cols[c].IsNull(i) {
							continue
						}
						if best < 0 {
							best = c
							continue
						}
						cmp := compute.CompareScalars(cols[c].GetScalar(i), cols[best].GetScalar(i))
						if (wantMax && cmp > 0) || (!wantMax && cmp < 0) {
							best = c
						}
					}
					if best < 0 {
						b.AppendNull()
					} else {
						b.AppendFrom(cols[best], i)
					}
				}
				return arrow.ArrayDatum(b.Finish()), nil
			},
		}
	}
	r.RegisterScalar(minmaxN("greatest", true))
	r.RegisterScalar(minmaxN("least", false))
}
