package functions

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// asString converts a datum to a string array, casting if necessary.
func asString(d arrow.Datum, numRows int) (*arrow.StringArray, error) {
	a := d.ToArray(numRows)
	if a.DataType().ID != arrow.STRING {
		cast, err := compute.Cast(a, arrow.String, nil)
		if err != nil {
			return nil, err
		}
		a = cast
	}
	return a.(*arrow.StringArray), nil
}

// stringUnary builds a string -> string elementwise function.
func stringUnary(name string, f func(string) string) *ScalarFunc {
	return &ScalarFunc{
		Name:       name,
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			b := arrow.NewStringBuilder(arrow.String)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) {
					b.AppendNull()
				} else {
					b.Append(f(in.Value(i)))
				}
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	}
}

// stringToInt builds a string -> int64 elementwise function.
func stringToInt(name string, f func(string) int64) *ScalarFunc {
	return &ScalarFunc{
		Name:       name,
		ReturnType: fixedType(arrow.Int64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			nb := arrow.NewNumericBuilder[int64](arrow.Int64)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) {
					nb.AppendNull()
				} else {
					nb.Append(f(in.Value(i)))
				}
			}
			return arrow.ArrayDatum(nb.Finish()), nil
		},
	}
}

func registerString(r *Registry) {
	r.RegisterScalar(stringUnary("upper", strings.ToUpper))
	r.RegisterScalar(stringUnary("lower", strings.ToLower))
	r.RegisterScalar(stringUnary("trim", strings.TrimSpace))
	r.RegisterScalar(stringUnary("ltrim", func(s string) string { return strings.TrimLeft(s, " ") }))
	r.RegisterScalar(stringUnary("rtrim", func(s string) string { return strings.TrimRight(s, " ") }))
	r.RegisterScalar(stringUnary("reverse", func(s string) string {
		runes := []rune(s)
		for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
			runes[i], runes[j] = runes[j], runes[i]
		}
		return string(runes)
	}))
	r.RegisterScalar(stringUnary("initcap", func(s string) string {
		prev := ' '
		return strings.Map(func(c rune) rune {
			out := c
			if prev == ' ' || prev == '\t' {
				out = []rune(strings.ToUpper(string(c)))[0]
			} else {
				out = []rune(strings.ToLower(string(c)))[0]
			}
			prev = c
			return out
		}, s)
	}))
	r.RegisterScalar(stringUnary("md5", func(s string) string {
		h := md5.Sum([]byte(s))
		return hex.EncodeToString(h[:])
	}))
	r.RegisterScalar(stringUnary("sha256", func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}))

	r.RegisterScalar(stringToInt("length", func(s string) int64 { return int64(len([]rune(s))) }))
	r.RegisterScalar(stringToInt("char_length", func(s string) int64 { return int64(len([]rune(s))) }))
	r.RegisterScalar(stringToInt("character_length", func(s string) int64 { return int64(len([]rune(s))) }))
	r.RegisterScalar(stringToInt("octet_length", func(s string) int64 { return int64(len(s)) }))
	r.RegisterScalar(stringToInt("ascii", func(s string) int64 {
		if len(s) == 0 {
			return 0
		}
		return int64([]rune(s)[0])
	}))

	substr := &ScalarFunc{
		Name:       "substring",
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			starts := args[1].ToArray(numRows)
			var lens arrow.Array
			if len(args) > 2 {
				lens = args[2].ToArray(numRows)
			}
			b := arrow.NewStringBuilder(arrow.String)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) || starts.IsNull(i) || (lens != nil && lens.IsNull(i)) {
					b.AppendNull()
					continue
				}
				s := in.Value(i)
				start := int(starts.GetScalar(i).AsInt64()) - 1 // SQL is 1-based
				if start < 0 {
					start = 0
				}
				if start >= len(s) {
					b.Append("")
					continue
				}
				end := len(s)
				if lens != nil {
					l := int(lens.GetScalar(i).AsInt64())
					if l < 0 {
						l = 0
					}
					if start+l < end {
						end = start + l
					}
				}
				b.Append(s[start:end])
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	}
	r.RegisterScalar(substr)
	r.RegisterScalar(&ScalarFunc{Name: "substr", ReturnType: substr.ReturnType, Eval: substr.Eval})

	r.RegisterScalar(&ScalarFunc{
		Name:       "concat",
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			cols := make([]*arrow.StringArray, len(args))
			for i, a := range args {
				s, err := asString(a, numRows)
				if err != nil {
					return arrow.Datum{}, err
				}
				cols[i] = s
			}
			b := arrow.NewStringBuilder(arrow.String)
			var sb strings.Builder
			for i := 0; i < numRows; i++ {
				sb.Reset()
				for _, c := range cols {
					if !c.IsNull(i) { // concat skips NULLs per Postgres
						sb.WriteString(c.Value(i))
					}
				}
				b.Append(sb.String())
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})

	r.RegisterScalar(&ScalarFunc{
		Name:       "replace",
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			if len(args) != 3 {
				return arrow.Datum{}, fmt.Errorf("replace takes 3 arguments")
			}
			in, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			from, err := asString(args[1], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			to, err := asString(args[2], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			b := arrow.NewStringBuilder(arrow.String)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) || from.IsNull(i) || to.IsNull(i) {
					b.AppendNull()
					continue
				}
				b.Append(strings.ReplaceAll(in.Value(i), from.Value(i), to.Value(i)))
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})

	binaryStringBool := func(name string, f func(a, b string) bool) *ScalarFunc {
		return &ScalarFunc{
			Name:       name,
			ReturnType: fixedType(arrow.Boolean),
			Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
				x, err := asString(args[0], numRows)
				if err != nil {
					return arrow.Datum{}, err
				}
				y, err := asString(args[1], numRows)
				if err != nil {
					return arrow.Datum{}, err
				}
				b := arrow.NewBoolBuilder()
				for i := 0; i < x.Len(); i++ {
					if x.IsNull(i) || y.IsNull(i) {
						b.AppendNull()
						continue
					}
					b.Append(f(x.Value(i), y.Value(i)))
				}
				return arrow.ArrayDatum(b.Finish()), nil
			},
		}
	}
	r.RegisterScalar(binaryStringBool("starts_with", strings.HasPrefix))
	r.RegisterScalar(binaryStringBool("ends_with", strings.HasSuffix))
	r.RegisterScalar(binaryStringBool("contains", strings.Contains))

	r.RegisterScalar(&ScalarFunc{
		Name:       "strpos",
		ReturnType: fixedType(arrow.Int64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			x, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			y, err := asString(args[1], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			b := arrow.NewNumericBuilder[int64](arrow.Int64)
			for i := 0; i < x.Len(); i++ {
				if x.IsNull(i) || y.IsNull(i) {
					b.AppendNull()
					continue
				}
				b.Append(int64(strings.Index(x.Value(i), y.Value(i)) + 1))
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})

	r.RegisterScalar(&ScalarFunc{
		Name:       "split_part",
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			sep, err := asString(args[1], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			idx := args[2].ToArray(numRows)
			b := arrow.NewStringBuilder(arrow.String)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) || sep.IsNull(i) || idx.IsNull(i) {
					b.AppendNull()
					continue
				}
				parts := strings.Split(in.Value(i), sep.Value(i))
				n := int(idx.GetScalar(i).AsInt64())
				if n >= 1 && n <= len(parts) {
					b.Append(parts[n-1])
				} else {
					b.Append("")
				}
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})

	pad := func(name string, left bool) *ScalarFunc {
		return &ScalarFunc{
			Name:       name,
			ReturnType: fixedType(arrow.String),
			Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
				in, err := asString(args[0], numRows)
				if err != nil {
					return arrow.Datum{}, err
				}
				lens := args[1].ToArray(numRows)
				fill := " "
				if len(args) > 2 {
					fa, err := asString(args[2], numRows)
					if err != nil {
						return arrow.Datum{}, err
					}
					if fa.Len() > 0 && !fa.IsNull(0) {
						fill = fa.Value(0)
					}
				}
				if fill == "" {
					fill = " "
				}
				b := arrow.NewStringBuilder(arrow.String)
				for i := 0; i < in.Len(); i++ {
					if in.IsNull(i) || lens.IsNull(i) {
						b.AppendNull()
						continue
					}
					s := in.Value(i)
					want := int(lens.GetScalar(i).AsInt64())
					if len(s) >= want {
						b.Append(s[:want])
						continue
					}
					padding := strings.Repeat(fill, (want-len(s))/len(fill)+1)[:want-len(s)]
					if left {
						b.Append(padding + s)
					} else {
						b.Append(s + padding)
					}
				}
				return arrow.ArrayDatum(b.Finish()), nil
			},
		}
	}
	r.RegisterScalar(pad("lpad", true))
	r.RegisterScalar(pad("rpad", false))

	r.RegisterScalar(&ScalarFunc{
		Name:       "repeat",
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in, err := asString(args[0], numRows)
			if err != nil {
				return arrow.Datum{}, err
			}
			counts := args[1].ToArray(numRows)
			b := arrow.NewStringBuilder(arrow.String)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) || counts.IsNull(i) {
					b.AppendNull()
					continue
				}
				n := int(counts.GetScalar(i).AsInt64())
				if n < 0 {
					n = 0
				}
				b.Append(strings.Repeat(in.Value(i), n))
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})

	leftRight := func(name string, left bool) *ScalarFunc {
		return &ScalarFunc{
			Name:       name,
			ReturnType: fixedType(arrow.String),
			Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
				in, err := asString(args[0], numRows)
				if err != nil {
					return arrow.Datum{}, err
				}
				counts := args[1].ToArray(numRows)
				b := arrow.NewStringBuilder(arrow.String)
				for i := 0; i < in.Len(); i++ {
					if in.IsNull(i) || counts.IsNull(i) {
						b.AppendNull()
						continue
					}
					s := in.Value(i)
					n := int(counts.GetScalar(i).AsInt64())
					if n < 0 {
						n = 0
					}
					if n > len(s) {
						n = len(s)
					}
					if left {
						b.Append(s[:n])
					} else {
						b.Append(s[len(s)-n:])
					}
				}
				return arrow.ArrayDatum(b.Finish()), nil
			},
		}
	}
	r.RegisterScalar(leftRight("left", true))
	r.RegisterScalar(leftRight("right", false))

	r.RegisterScalar(&ScalarFunc{
		Name:       "chr",
		ReturnType: fixedType(arrow.String),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in := args[0].ToArray(numRows)
			b := arrow.NewStringBuilder(arrow.String)
			for i := 0; i < in.Len(); i++ {
				if in.IsNull(i) {
					b.AppendNull()
					continue
				}
				b.Append(string(rune(in.GetScalar(i).AsInt64())))
			}
			return arrow.ArrayDatum(b.Finish()), nil
		},
	})
}
