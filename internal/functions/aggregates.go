package functions

import (
	"fmt"
	"math"

	"gofusion/internal/arrow"
	"gofusion/internal/rowformat"
)

// GroupsAccumulator is the vectorized grouped-aggregation contract (the
// design the paper credits for fast low-cardinality grouping): one Update
// call per batch carries every row's group index, so accumulators update
// flat per-group state arrays without per-row dispatch.
type GroupsAccumulator interface {
	// Update consumes a batch: row i belongs to group groupIdx[i];
	// numGroups is the total number of groups seen so far. The args arrays
	// are valid only for the call (the caller reuses their buffers for its
	// next batch), so an accumulator copies any value it keeps.
	Update(args []arrow.Array, groupIdx []uint32, numGroups int) error
	// MergeStates consumes partial states (as produced by State) from
	// another accumulator instance, for two-phase aggregation.
	MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error
	// State exports the partial aggregation state, one row per group.
	State() ([]arrow.Array, error)
	// Evaluate produces the final per-group results.
	Evaluate() (arrow.Array, error)
}

// numericReturn resolves sum-like output types.
func sumReturnType(args []*arrow.DataType) (*arrow.DataType, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("sum takes 1 argument")
	}
	t := args[0]
	switch {
	case t.ID == arrow.DECIMAL:
		return arrow.Decimal(18, t.Scale), nil
	case t.IsFloat():
		return arrow.Float64, nil
	case t.IsInteger(), t.ID == arrow.NULL:
		return arrow.Int64, nil
	}
	return nil, fmt.Errorf("sum: unsupported type %s", t)
}

func minMaxReturnType(args []*arrow.DataType) (*arrow.DataType, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("min/max take 1 argument")
	}
	return args[0], nil
}

func float64Return(args []*arrow.DataType) (*arrow.DataType, error) {
	return arrow.Float64, nil
}

func int64Return(args []*arrow.DataType) (*arrow.DataType, error) {
	return arrow.Int64, nil
}

func registerAggregates(r *Registry) {
	r.RegisterAgg(&AggFunc{
		Name:       "count",
		ReturnType: int64Return,
		StateTypes: func([]*arrow.DataType) ([]*arrow.DataType, error) {
			return []*arrow.DataType{arrow.Int64}, nil
		},
		NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
			return &countAcc{}, nil
		},
	})
	r.RegisterAgg(&AggFunc{
		Name:       "count_distinct",
		ReturnType: int64Return,
		StateTypes: func(args []*arrow.DataType) ([]*arrow.DataType, error) {
			t := arrow.Int64
			if len(args) == 1 {
				t = args[0]
			}
			return []*arrow.DataType{arrow.ListOf(t)}, nil
		},
		NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("count(DISTINCT) takes 1 argument")
			}
			enc, err := rowformat.NewEncoder(args, nil)
			if err != nil {
				return nil, fmt.Errorf("count(DISTINCT): %w", err)
			}
			return &distinctAcc{enc: enc, seen: map[string]struct{}{}}, nil
		},
	})
	r.RegisterAgg(&AggFunc{
		Name:       "sum",
		ReturnType: sumReturnType,
		StateTypes: func(args []*arrow.DataType) ([]*arrow.DataType, error) {
			t, err := sumReturnType(args)
			if err != nil {
				return nil, err
			}
			return []*arrow.DataType{t}, nil
		},
		NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
			out, err := sumReturnType(args)
			if err != nil {
				return nil, err
			}
			if out.ID == arrow.FLOAT64 {
				return &sumFloatAcc{}, nil
			}
			return &sumIntAcc{outType: out}, nil
		},
	})
	for _, name := range []string{"min", "max"} {
		isMax := name == "max"
		r.RegisterAgg(&AggFunc{
			Name:       name,
			ReturnType: minMaxReturnType,
			StateTypes: func(args []*arrow.DataType) ([]*arrow.DataType, error) {
				return []*arrow.DataType{args[0]}, nil
			},
			NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
				return newMinMaxAcc(args[0], isMax)
			},
		})
	}
	r.RegisterAgg(&AggFunc{
		Name:       "avg",
		ReturnType: float64Return,
		StateTypes: func([]*arrow.DataType) ([]*arrow.DataType, error) {
			return []*arrow.DataType{arrow.Float64, arrow.Int64}, nil
		},
		NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
			return &avgAcc{}, nil
		},
	})
	av, _ := r.Agg("avg")
	r.RegisterAgg(&AggFunc{Name: "mean", ReturnType: av.ReturnType, StateTypes: av.StateTypes, NewAccumulator: av.NewAccumulator})

	for _, spec := range []struct {
		name string
		kind varKind
	}{
		{"var", varSamp}, {"var_samp", varSamp}, {"var_pop", varPop},
		{"stddev", stdSamp}, {"stddev_samp", stdSamp}, {"stddev_pop", stdPop},
	} {
		kind := spec.kind
		r.RegisterAgg(&AggFunc{
			Name:       spec.name,
			ReturnType: float64Return,
			StateTypes: func([]*arrow.DataType) ([]*arrow.DataType, error) {
				return []*arrow.DataType{arrow.Int64, arrow.Float64, arrow.Float64}, nil
			},
			NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
				return &varianceAcc{kind: kind}, nil
			},
		})
	}

	r.RegisterAgg(&AggFunc{
		Name:       "corr",
		ReturnType: float64Return,
		StateTypes: func([]*arrow.DataType) ([]*arrow.DataType, error) {
			return []*arrow.DataType{arrow.Int64, arrow.Float64, arrow.Float64,
				arrow.Float64, arrow.Float64, arrow.Float64}, nil
		},
		NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
			return &corrAcc{}, nil
		},
	})

	r.RegisterAgg(&AggFunc{
		Name:       "median",
		ReturnType: float64Return,
		StateTypes: func([]*arrow.DataType) ([]*arrow.DataType, error) {
			return []*arrow.DataType{arrow.ListOf(arrow.Float64)}, nil
		},
		NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
			return &medianAcc{}, nil
		},
	})

	for _, spec := range []struct {
		name string
		last bool
	}{{"first_value", false}, {"last_value", true}} {
		last := spec.last
		r.RegisterAgg(&AggFunc{
			Name:       spec.name,
			ReturnType: minMaxReturnType,
			StateTypes: func(args []*arrow.DataType) ([]*arrow.DataType, error) {
				return []*arrow.DataType{args[0], arrow.Boolean}, nil
			},
			NewAccumulator: func(args []*arrow.DataType) (GroupsAccumulator, error) {
				return &firstLastAcc{argType: args[0], last: last}, nil
			},
		})
	}
}

// asFloat64Values extracts float64 values + validity from any numeric
// array, honoring decimal scale.
func asFloat64Values(a arrow.Array) ([]float64, arrow.Bitmap, error) {
	switch arr := a.(type) {
	case *arrow.Float64Array:
		return arr.Values(), arr.Validity(), nil
	case *arrow.Float32Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Int64Array:
		if t := a.DataType(); t.ID == arrow.DECIMAL {
			scale := math.Pow10(t.Scale)
			out := make([]float64, arr.Len())
			for i, v := range arr.Values() {
				out[i] = float64(v) / scale
			}
			return out, arr.Validity(), nil
		}
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Int32Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Int16Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Int8Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Uint64Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Uint32Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Uint16Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.Uint8Array:
		return widen[float64](arr), arr.Validity(), nil
	case *arrow.NullArray:
		return make([]float64, arr.Len()), arrow.NewBitmap(arr.Len()), nil
	}
	return nil, nil, fmt.Errorf("functions: non-numeric aggregate input %s", a.DataType())
}

// asInt64Values extracts int64 values + validity from integer-backed
// arrays (keeping decimal values scaled).
func asInt64Values(a arrow.Array) ([]int64, arrow.Bitmap, error) {
	switch arr := a.(type) {
	case *arrow.Int64Array:
		return arr.Values(), arr.Validity(), nil
	case *arrow.Int32Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.Int16Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.Int8Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.Uint64Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.Uint32Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.Uint16Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.Uint8Array:
		return widen[int64](arr), arr.Validity(), nil
	case *arrow.NullArray:
		return make([]int64, arr.Len()), arrow.NewBitmap(arr.Len()), nil
	}
	return nil, nil, fmt.Errorf("functions: non-integer aggregate input %s", a.DataType())
}

// widen copies a's values converted to R.
func widen[R int64 | float64, T arrow.Number](a *arrow.NumericArray[T]) []R {
	out := make([]R, a.Len())
	for i, v := range a.Values() {
		out[i] = R(v)
	}
	return out
}

// An ungrouped aggregate sends every row to group 0, so its Update has
// numGroups == 1. The accumulators below then fold the argument's native
// values into a local that starts from group 0's running value: no widened
// copy of the argument and no store per row. Values are folded in row
// order, so float sums match the per-row path bit for bit.

// foldOp selects what fold does with each value.
type foldOp int

const (
	foldSum foldOp = iota
	foldMin
	foldMax
)

// fold folds the valid slots of vals, converted to A, into acc and counts
// them: foldSum adds each (divided by scale unless it is 1); foldMin and
// foldMax keep the extreme, taking the first value when nothing is seen.
func fold[T arrow.Number, A int64 | float64](op foldOp, vals []T, valid arrow.Bitmap, acc, scale A, seen bool) (A, int) {
	if op == foldSum && valid == nil && scale == 1 {
		for _, v := range vals {
			acc += A(v)
		}
		return acc, len(vals)
	}
	n := 0
	for i, v := range vals {
		if !valid.Get(i) {
			continue
		}
		x := A(v)
		switch {
		case op == foldSum:
			if scale != 1 {
				x /= scale
			}
			acc += x
		case !seen && n == 0, op == foldMax && x > acc, op == foldMin && x < acc:
			acc = x
		}
		n++
	}
	return acc, n
}

// foldArray is fold over a numeric array; ok is false (acc unchanged) for
// any other array, which the caller's per-row path then rejects.
func foldArray[A int64 | float64](op foldOp, a arrow.Array, acc, scale A, seen bool) (_ A, n int, ok bool) {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Int16Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Int32Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Int64Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Uint8Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Uint16Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Uint32Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Uint64Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Float32Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.Float64Array:
		acc, n = fold(op, arr.Values(), arr.Validity(), acc, scale, seen)
	case *arrow.NullArray:
	default:
		return acc, 0, false
	}
	return acc, n, true
}

// decimalScale is what asFloat64Values divides a's values by.
func decimalScale(a arrow.Array) float64 {
	if t := a.DataType(); t.ID == arrow.DECIMAL {
		return math.Pow10(t.Scale)
	}
	return 1
}

// growTo extends s with zero values up to length n. Group counts jump by
// whole batches (the group table assigns dense ids batch-at-a-time), so
// one bulk extension replaces per-element appends. A reallocation at least
// doubles the capacity: append alone grows large slices by 1.25x, which
// would re-copy the state several more times on the way to a large table.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		m := len(s)
		s = s[:n]
		clear(s[m:])
		return s
	}
	return append(make([]T, 0, max(n, 2*cap(s))), s...)[:n]
}

// countAcc implements COUNT(*) and COUNT(expr).
type countAcc struct {
	counts []int64
}

func (c *countAcc) ensure(n int) {
	c.counts = growTo(c.counts, n)
}

func (c *countAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	c.ensure(numGroups)
	if numGroups == 1 {
		n := len(groupIdx)
		if len(args) > 0 {
			n -= args[0].NullCount()
		}
		c.counts[0] += int64(n)
		return nil
	}
	if len(args) == 0 { // COUNT(*)
		for _, g := range groupIdx {
			c.counts[g]++
		}
		return nil
	}
	a := args[0]
	if a.NullCount() == 0 {
		for _, g := range groupIdx {
			c.counts[g]++
		}
		return nil
	}
	for i, g := range groupIdx {
		if a.IsValid(i) {
			c.counts[g]++
		}
	}
	return nil
}

func (c *countAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	c.ensure(numGroups)
	vals := states[0].(*arrow.Int64Array).Values()
	for i, g := range groupIdx {
		c.counts[g] += vals[i]
	}
	return nil
}

func (c *countAcc) State() ([]arrow.Array, error) {
	return []arrow.Array{arrow.NewInt64(c.counts)}, nil
}

func (c *countAcc) Evaluate() (arrow.Array, error) {
	return arrow.NewInt64(c.counts), nil
}

// sumIntAcc sums integer-backed values (Int*, Decimal).
type sumIntAcc struct {
	outType *arrow.DataType
	sums    []int64
	seen    []bool
}

func (s *sumIntAcc) ensure(n int) {
	s.sums = growTo(s.sums, n)
	s.seen = growTo(s.seen, n)
}

func (s *sumIntAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	s.ensure(numGroups)
	if numGroups == 1 {
		if sum, n, ok := foldArray(foldSum, args[0], s.sums[0], 1, false); ok {
			s.sums[0], s.seen[0] = sum, s.seen[0] || n > 0
			return nil
		}
	}
	vals, valid, err := asInt64Values(args[0])
	if err != nil {
		return err
	}
	if valid == nil {
		for i, g := range groupIdx {
			s.sums[g] += vals[i]
			s.seen[g] = true
		}
		return nil
	}
	for i, g := range groupIdx {
		if valid.Get(i) {
			s.sums[g] += vals[i]
			s.seen[g] = true
		}
	}
	return nil
}

func (s *sumIntAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	s.ensure(numGroups)
	a := states[0].(*arrow.Int64Array)
	for i, g := range groupIdx {
		if a.IsValid(i) {
			s.sums[g] += a.Value(i)
			s.seen[g] = true
		}
	}
	return nil
}

func (s *sumIntAcc) buildArray() arrow.Array {
	n := len(s.sums)
	var valid arrow.Bitmap
	for g, ok := range s.seen {
		if !ok {
			if valid == nil {
				valid = arrow.NewBitmapSet(n)
			}
			valid.Clear(g)
		}
	}
	return arrow.NewNumeric(s.outType, append([]int64(nil), s.sums...), valid)
}

func (s *sumIntAcc) State() ([]arrow.Array, error)  { return []arrow.Array{s.buildArray()}, nil }
func (s *sumIntAcc) Evaluate() (arrow.Array, error) { return s.buildArray(), nil }

// sumFloatAcc sums float values.
type sumFloatAcc struct {
	sums []float64
	seen []bool
}

func (s *sumFloatAcc) ensure(n int) {
	s.sums = growTo(s.sums, n)
	s.seen = growTo(s.seen, n)
}

func (s *sumFloatAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	s.ensure(numGroups)
	if numGroups == 1 {
		if sum, n, ok := foldArray(foldSum, args[0], s.sums[0], decimalScale(args[0]), false); ok {
			s.sums[0], s.seen[0] = sum, s.seen[0] || n > 0
			return nil
		}
	}
	vals, valid, err := asFloat64Values(args[0])
	if err != nil {
		return err
	}
	if valid == nil {
		for i, g := range groupIdx {
			s.sums[g] += vals[i]
			s.seen[g] = true
		}
		return nil
	}
	for i, g := range groupIdx {
		if valid.Get(i) {
			s.sums[g] += vals[i]
			s.seen[g] = true
		}
	}
	return nil
}

func (s *sumFloatAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	s.ensure(numGroups)
	a := states[0].(*arrow.Float64Array)
	for i, g := range groupIdx {
		if a.IsValid(i) {
			s.sums[g] += a.Value(i)
			s.seen[g] = true
		}
	}
	return nil
}

func (s *sumFloatAcc) buildArray() arrow.Array {
	n := len(s.sums)
	var valid arrow.Bitmap
	for g, ok := range s.seen {
		if !ok {
			if valid == nil {
				valid = arrow.NewBitmapSet(n)
			}
			valid.Clear(g)
		}
	}
	return arrow.NewNumeric(arrow.Float64, append([]float64(nil), s.sums...), valid)
}

func (s *sumFloatAcc) State() ([]arrow.Array, error)  { return []arrow.Array{s.buildArray()}, nil }
func (s *sumFloatAcc) Evaluate() (arrow.Array, error) { return s.buildArray(), nil }

// avgAcc averages numeric values.
type avgAcc struct {
	sums   []float64
	counts []int64
}

func (a *avgAcc) ensure(n int) {
	a.sums = growTo(a.sums, n)
	a.counts = growTo(a.counts, n)
}

func (a *avgAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	a.ensure(numGroups)
	if numGroups == 1 {
		if sum, n, ok := foldArray(foldSum, args[0], a.sums[0], decimalScale(args[0]), false); ok {
			a.sums[0], a.counts[0] = sum, a.counts[0]+int64(n)
			return nil
		}
	}
	vals, valid, err := asFloat64Values(args[0])
	if err != nil {
		return err
	}
	if valid == nil {
		for i, g := range groupIdx {
			a.sums[g] += vals[i]
			a.counts[g]++
		}
		return nil
	}
	for i, g := range groupIdx {
		if valid.Get(i) {
			a.sums[g] += vals[i]
			a.counts[g]++
		}
	}
	return nil
}

func (a *avgAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	a.ensure(numGroups)
	sums := states[0].(*arrow.Float64Array).Values()
	counts := states[1].(*arrow.Int64Array).Values()
	for i, g := range groupIdx {
		a.sums[g] += sums[i]
		a.counts[g] += counts[i]
	}
	return nil
}

func (a *avgAcc) State() ([]arrow.Array, error) {
	return []arrow.Array{
		arrow.NewFloat64(append([]float64(nil), a.sums...)),
		arrow.NewInt64(append([]int64(nil), a.counts...)),
	}, nil
}

func (a *avgAcc) Evaluate() (arrow.Array, error) {
	n := len(a.sums)
	out := make([]float64, n)
	var valid arrow.Bitmap
	for g := 0; g < n; g++ {
		if a.counts[g] == 0 {
			if valid == nil {
				valid = arrow.NewBitmapSet(n)
			}
			valid.Clear(g)
			continue
		}
		out[g] = a.sums[g] / float64(a.counts[g])
	}
	return arrow.NewNumeric(arrow.Float64, out, valid), nil
}
