package functions

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"gofusion/internal/arrow"
)

func evalScalar(t *testing.T, r *Registry, name string, n int, args ...arrow.Datum) arrow.Array {
	t.Helper()
	f, ok := r.Scalar(name)
	if !ok {
		t.Fatalf("missing function %s", name)
	}
	out, err := f.Eval(args, n)
	if err != nil {
		t.Fatal(err)
	}
	return out.ToArray(n)
}

func TestStringFunctions(t *testing.T) {
	r := NewRegistry()
	in := arrow.ArrayDatum(arrow.NewStringFromSlice([]string{"Hello", "wORLD"}))
	up := evalScalar(t, r, "upper", 2, in).(*arrow.StringArray)
	if up.Value(0) != "HELLO" || up.Value(1) != "WORLD" {
		t.Fatal("upper wrong")
	}
	lo := evalScalar(t, r, "lower", 2, in).(*arrow.StringArray)
	if lo.Value(0) != "hello" {
		t.Fatal("lower wrong")
	}
	ln := evalScalar(t, r, "length", 2, in).(*arrow.Int64Array)
	if ln.Value(0) != 5 {
		t.Fatal("length wrong")
	}
	sub := evalScalar(t, r, "substring", 2, in,
		arrow.ScalarDatum(arrow.Int64Scalar(2)), arrow.ScalarDatum(arrow.Int64Scalar(3))).(*arrow.StringArray)
	if sub.Value(0) != "ell" {
		t.Fatalf("substring = %q", sub.Value(0))
	}
	cc := evalScalar(t, r, "concat", 2, in, arrow.ScalarDatum(arrow.StringScalar("!"))).(*arrow.StringArray)
	if cc.Value(1) != "wORLD!" {
		t.Fatal("concat wrong")
	}
	sw := evalScalar(t, r, "starts_with", 2, in, arrow.ScalarDatum(arrow.StringScalar("He"))).(*arrow.BoolArray)
	if !sw.Value(0) || sw.Value(1) {
		t.Fatal("starts_with wrong")
	}
	rp := evalScalar(t, r, "replace", 2, in,
		arrow.ScalarDatum(arrow.StringScalar("l")), arrow.ScalarDatum(arrow.StringScalar("L"))).(*arrow.StringArray)
	if rp.Value(0) != "HeLLo" {
		t.Fatal("replace wrong")
	}
}

func TestStringNullPropagation(t *testing.T) {
	r := NewRegistry()
	b := arrow.NewStringBuilder(arrow.String)
	b.Append("x")
	b.AppendNull()
	in := arrow.ArrayDatum(b.Finish())
	up := evalScalar(t, r, "upper", 2, in)
	if up.IsNull(0) || !up.IsNull(1) {
		t.Fatal("null propagation wrong")
	}
	// concat treats NULL as empty (Postgres semantics)
	cc := evalScalar(t, r, "concat", 2, in, arrow.ScalarDatum(arrow.StringScalar("y"))).(*arrow.StringArray)
	if cc.Value(1) != "y" {
		t.Fatal("concat null handling wrong")
	}
}

func TestMathFunctions(t *testing.T) {
	r := NewRegistry()
	in := arrow.ArrayDatum(arrow.NewFloat64([]float64{4, 2.25}))
	sq := evalScalar(t, r, "sqrt", 2, in).(*arrow.Float64Array)
	if sq.Value(0) != 2 || sq.Value(1) != 1.5 {
		t.Fatal("sqrt wrong")
	}
	ab := evalScalar(t, r, "abs", 2, arrow.ArrayDatum(arrow.NewInt64([]int64{-5, 3}))).(*arrow.Int64Array)
	if ab.Value(0) != 5 || ab.Value(1) != 3 {
		t.Fatal("abs wrong")
	}
	rd := evalScalar(t, r, "round", 2, arrow.ArrayDatum(arrow.NewFloat64([]float64{1.25, -1.75})),
		arrow.ScalarDatum(arrow.Int64Scalar(1))).(*arrow.Float64Array)
	if rd.Value(0) != 1.3 || rd.Value(1) != -1.8 {
		t.Fatalf("round wrong: %v %v", rd.Value(0), rd.Value(1))
	}
	// int input to float function
	fl := evalScalar(t, r, "floor", 1, arrow.ArrayDatum(arrow.NewInt64([]int64{7}))).(*arrow.Float64Array)
	if fl.Value(0) != 7 {
		t.Fatal("floor of int wrong")
	}
}

func TestDateFunctions(t *testing.T) {
	r := NewRegistry()
	d, _ := arrow.ParseDate32("1995-03-15")
	db := arrow.NewNumericBuilder[int32](arrow.Date32)
	db.Append(d)
	in := arrow.ArrayDatum(db.Finish())
	part := func(p string) int64 {
		out := evalScalar(t, r, "date_part", 1, arrow.ScalarDatum(arrow.StringScalar(p)), in).(*arrow.Int64Array)
		return out.Value(0)
	}
	if part("year") != 1995 || part("month") != 3 || part("day") != 15 || part("quarter") != 1 {
		t.Fatal("date_part wrong")
	}
	tr := evalScalar(t, r, "date_trunc", 1, arrow.ScalarDatum(arrow.StringScalar("month")), in).(*arrow.Int32Array)
	if arrow.FormatDate32(tr.Value(0)) != "1995-03-01" {
		t.Fatalf("date_trunc = %s", arrow.FormatDate32(tr.Value(0)))
	}
	md := evalScalar(t, r, "make_date", 1,
		arrow.ScalarDatum(arrow.Int64Scalar(2020)), arrow.ScalarDatum(arrow.Int64Scalar(2)),
		arrow.ScalarDatum(arrow.Int64Scalar(29))).(*arrow.Int32Array)
	if arrow.FormatDate32(md.Value(0)) != "2020-02-29" {
		t.Fatal("make_date wrong")
	}
}

func TestConditionalFunctions(t *testing.T) {
	r := NewRegistry()
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	b.AppendNull()
	b.Append(2)
	in := arrow.ArrayDatum(b.Finish())
	co := evalScalar(t, r, "coalesce", 2, in, arrow.ScalarDatum(arrow.Int64Scalar(99))).(*arrow.Int64Array)
	if co.Value(0) != 99 || co.Value(1) != 2 {
		t.Fatal("coalesce wrong")
	}
	nf := evalScalar(t, r, "nullif", 2, arrow.ArrayDatum(arrow.NewInt64([]int64{1, 2})),
		arrow.ScalarDatum(arrow.Int64Scalar(2)))
	if nf.IsNull(0) || !nf.IsNull(1) {
		t.Fatal("nullif wrong")
	}
	gr := evalScalar(t, r, "greatest", 2, arrow.ArrayDatum(arrow.NewInt64([]int64{1, 9})),
		arrow.ScalarDatum(arrow.Int64Scalar(5))).(*arrow.Int64Array)
	if gr.Value(0) != 5 || gr.Value(1) != 9 {
		t.Fatal("greatest wrong")
	}
}

// accumulate runs an accumulator over one batch with the given groups.
func accumulate(t *testing.T, r *Registry, name string, args []arrow.Array, groups []uint32, numGroups int) arrow.Array {
	t.Helper()
	f, ok := r.Agg(name)
	if !ok {
		t.Fatalf("missing aggregate %s", name)
	}
	types := make([]*arrow.DataType, len(args))
	for i, a := range args {
		types[i] = a.DataType()
	}
	acc, err := f.NewAccumulator(types)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Update(args, groups, numGroups); err != nil {
		t.Fatal(err)
	}
	out, err := acc.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBasicAggregates(t *testing.T) {
	r := NewRegistry()
	vals := arrow.NewInt64([]int64{1, 2, 3, 10, 20})
	groups := []uint32{0, 0, 0, 1, 1}

	sum := accumulate(t, r, "sum", []arrow.Array{vals}, groups, 2).(*arrow.Int64Array)
	if sum.Value(0) != 6 || sum.Value(1) != 30 {
		t.Fatal("sum wrong")
	}
	cnt := accumulate(t, r, "count", []arrow.Array{vals}, groups, 2).(*arrow.Int64Array)
	if cnt.Value(0) != 3 || cnt.Value(1) != 2 {
		t.Fatal("count wrong")
	}
	mn := accumulate(t, r, "min", []arrow.Array{vals}, groups, 2).(*arrow.Int64Array)
	mx := accumulate(t, r, "max", []arrow.Array{vals}, groups, 2).(*arrow.Int64Array)
	if mn.Value(0) != 1 || mx.Value(1) != 20 {
		t.Fatal("min/max wrong")
	}
	avg := accumulate(t, r, "avg", []arrow.Array{vals}, groups, 2).(*arrow.Float64Array)
	if avg.Value(0) != 2 || avg.Value(1) != 15 {
		t.Fatal("avg wrong")
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	r := NewRegistry()
	b := arrow.NewNumericBuilder[int64](arrow.Int64)
	b.Append(5)
	b.AppendNull()
	b.Append(7)
	vals := b.Finish()
	groups := []uint32{0, 0, 0}
	sum := accumulate(t, r, "sum", []arrow.Array{vals}, groups, 1).(*arrow.Int64Array)
	if sum.Value(0) != 12 {
		t.Fatal("sum must skip nulls")
	}
	cnt := accumulate(t, r, "count", []arrow.Array{vals}, groups, 1).(*arrow.Int64Array)
	if cnt.Value(0) != 2 {
		t.Fatal("count must skip nulls")
	}
	// empty group produces NULL sum
	sum2 := accumulate(t, r, "sum", []arrow.Array{vals}, groups, 2)
	if !sum2.IsNull(1) {
		t.Fatal("empty group sum must be NULL")
	}
}

func TestMinMaxStrings(t *testing.T) {
	r := NewRegistry()
	vals := arrow.NewStringFromSlice([]string{"pear", "apple", "zebra", "kiwi"})
	groups := []uint32{0, 0, 1, 1}
	mn := accumulate(t, r, "min", []arrow.Array{vals}, groups, 2).(*arrow.StringArray)
	if mn.Value(0) != "apple" || mn.Value(1) != "kiwi" {
		t.Fatal("string min wrong")
	}
}

func TestVarianceAndStddev(t *testing.T) {
	r := NewRegistry()
	vals := arrow.NewFloat64([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	groups := make([]uint32, 8)
	vp := accumulate(t, r, "var_pop", []arrow.Array{vals}, groups, 1).(*arrow.Float64Array)
	if math.Abs(vp.Value(0)-4.0) > 1e-9 {
		t.Fatalf("var_pop = %v", vp.Value(0))
	}
	sp := accumulate(t, r, "stddev_pop", []arrow.Array{vals}, groups, 1).(*arrow.Float64Array)
	if math.Abs(sp.Value(0)-2.0) > 1e-9 {
		t.Fatalf("stddev_pop = %v", sp.Value(0))
	}
	// single value: sample variance undefined -> NULL
	one := accumulate(t, r, "var", []arrow.Array{arrow.NewFloat64([]float64{5})}, []uint32{0}, 1)
	if !one.IsNull(0) {
		t.Fatal("sample variance of 1 value must be NULL")
	}
}

func TestCorr(t *testing.T) {
	r := NewRegistry()
	x := arrow.NewFloat64([]float64{1, 2, 3, 4})
	y := arrow.NewFloat64([]float64{2, 4, 6, 8})
	groups := make([]uint32, 4)
	c := accumulate(t, r, "corr", []arrow.Array{x, y}, groups, 1).(*arrow.Float64Array)
	if math.Abs(c.Value(0)-1.0) > 1e-9 {
		t.Fatalf("corr = %v", c.Value(0))
	}
	yneg := arrow.NewFloat64([]float64{8, 6, 4, 2})
	c2 := accumulate(t, r, "corr", []arrow.Array{x, yneg}, groups, 1).(*arrow.Float64Array)
	if math.Abs(c2.Value(0)+1.0) > 1e-9 {
		t.Fatalf("corr = %v", c2.Value(0))
	}
}

func TestMedian(t *testing.T) {
	r := NewRegistry()
	vals := arrow.NewInt64([]int64{5, 1, 3, 2, 4, 10, 20})
	groups := []uint32{0, 0, 0, 0, 0, 1, 1}
	m := accumulate(t, r, "median", []arrow.Array{vals}, groups, 2).(*arrow.Float64Array)
	if m.Value(0) != 3 || m.Value(1) != 15 {
		t.Fatal("median wrong")
	}
}

func TestCountDistinct(t *testing.T) {
	r := NewRegistry()
	vals := arrow.NewStringFromSlice([]string{"a", "b", "a", "c", "c", "c"})
	groups := []uint32{0, 0, 0, 1, 1, 1}
	c := accumulate(t, r, "count_distinct", []arrow.Array{vals}, groups, 2).(*arrow.Int64Array)
	if c.Value(0) != 2 || c.Value(1) != 1 {
		t.Fatal("count distinct wrong")
	}

	// State lists each group's values once, NULLs excluded, strings with
	// empties and embedded NULs intact; merging it elsewhere (overlapping,
	// and into swapped groups) counts the union.
	f, _ := r.Agg("count_distinct")
	sb := arrow.NewStringBuilder(arrow.String)
	for _, v := range []string{"", "a\x00b", "a", "", "a\x00"} {
		sb.Append(v)
	}
	sb.AppendNull()
	part, err := f.NewAccumulator([]*arrow.DataType{arrow.String})
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Update([]arrow.Array{sb.Finish()}, []uint32{0, 0, 0, 1, 1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	states, err := part.State()
	if err != nil {
		t.Fatal(err)
	}
	la := states[0].(*arrow.ListArray)
	var listed [][]string
	for g := 0; g < la.Len(); g++ {
		vals := la.ValueArray(g).(*arrow.StringArray)
		var vs []string
		for i := 0; i < vals.Len(); i++ {
			vs = append(vs, vals.Value(i))
		}
		sort.Strings(vs)
		listed = append(listed, vs)
	}
	if want := [][]string{{"", "a", "a\x00b"}, {"", "a\x00"}, nil}; !reflect.DeepEqual(listed, want) {
		t.Fatalf("state lists %q, want %q", listed, want)
	}
	final, _ := f.NewAccumulator([]*arrow.DataType{arrow.String})
	if err := final.Update([]arrow.Array{arrow.NewStringFromSlice([]string{"a", "z"})}, []uint32{0, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := final.MergeStates(states, []uint32{1, 0, 0}, 2); err != nil {
		t.Fatal(err)
	}
	out, _ := final.Evaluate()
	if got := out.(*arrow.Int64Array).Values(); !reflect.DeepEqual(got, []int64{4, 3}) {
		t.Fatalf("merged counts %v, want [4 3]", got)
	}

	// Keys are GROUP BY's: a type grouping rejects is rejected here too.
	if _, err := f.NewAccumulator([]*arrow.DataType{arrow.ListOf(arrow.Int64)}); err == nil {
		t.Fatal("count(DISTINCT list) must be rejected when the accumulator is built")
	}
}

func TestTwoPhaseMerge(t *testing.T) {
	// Simulate two-phase aggregation: partial accumulators produce State,
	// a final accumulator merges them; results must match single-phase.
	r := NewRegistry()
	for _, name := range []string{"sum", "count", "avg", "min", "max", "var", "stddev", "corr", "median", "count_distinct"} {
		args := []arrow.Array{
			arrow.NewFloat64([]float64{1, 2, 3, 4, 5, 6}),
			arrow.NewFloat64([]float64{2, 4, 5, 9, 10, 13}),
		}
		f, _ := r.Agg(name)
		nArgs := 1
		if name == "corr" {
			nArgs = 2
		}
		types := make([]*arrow.DataType, nArgs)
		for i := range types {
			types[i] = arrow.Float64
		}

		groups := []uint32{0, 1, 0, 1, 0, 1}
		single, err := f.NewAccumulator(types)
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Update(args[:nArgs], groups, 2); err != nil {
			t.Fatal(err)
		}
		want, err := single.Evaluate()
		if err != nil {
			t.Fatal(err)
		}

		// Split rows into two partials.
		p1, _ := f.NewAccumulator(types)
		p2, _ := f.NewAccumulator(types)
		half := func(a arrow.Array, lo, n int) arrow.Array { return a.Slice(lo, n) }
		args1 := make([]arrow.Array, nArgs)
		args2 := make([]arrow.Array, nArgs)
		for i := 0; i < nArgs; i++ {
			args1[i] = half(args[i], 0, 3)
			args2[i] = half(args[i], 3, 3)
		}
		if err := p1.Update(args1, []uint32{0, 1, 0}, 2); err != nil {
			t.Fatal(err)
		}
		if err := p2.Update(args2, []uint32{1, 0, 1}, 2); err != nil {
			t.Fatal(err)
		}
		final, _ := f.NewAccumulator(types)
		for _, p := range []GroupsAccumulator{p1, p2} {
			state, err := p.State()
			if err != nil {
				t.Fatal(err)
			}
			if err := final.MergeStates(state, []uint32{0, 1}, 2); err != nil {
				t.Fatal(err)
			}
		}
		got, err := final.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 2; g++ {
			ws, gs := want.GetScalar(g), got.GetScalar(g)
			if ws.Null != gs.Null {
				t.Fatalf("%s group %d: null mismatch %v vs %v", name, g, ws, gs)
			}
			if ws.Null {
				continue
			}
			if ws.Type.ID == arrow.FLOAT64 {
				if math.Abs(ws.AsFloat64()-gs.AsFloat64()) > 1e-9 {
					t.Fatalf("%s group %d: %v != %v", name, g, ws, gs)
				}
			} else if !ws.Equal(gs) {
				t.Fatalf("%s group %d: %v != %v", name, g, ws, gs)
			}
		}
	}
}

func TestRegistryTypeResolution(t *testing.T) {
	r := NewRegistry()
	// logical.Registry interface behavior
	tp, err := r.ScalarReturnType("upper", []*arrow.DataType{arrow.String})
	if err != nil || tp.ID != arrow.STRING {
		t.Fatal("scalar type resolution wrong")
	}
	tp, err = r.AggReturnType("sum", []*arrow.DataType{arrow.Decimal(12, 2)})
	if err != nil || tp.ID != arrow.DECIMAL || tp.Scale != 2 {
		t.Fatal("sum(decimal) type wrong")
	}
	tp, err = r.WindowReturnType("row_number", nil)
	if err != nil || tp.ID != arrow.INT64 {
		t.Fatal("window type wrong")
	}
	// aggregates usable as window functions
	tp, err = r.WindowReturnType("sum", []*arrow.DataType{arrow.Int64})
	if err != nil || tp.ID != arrow.INT64 {
		t.Fatal("agg-as-window type wrong")
	}
	if _, err := r.ScalarReturnType("no_such_fn", nil); err == nil {
		t.Fatal("unknown function must error")
	}
}

func TestUDFRegistration(t *testing.T) {
	r := NewRegistry()
	r.RegisterScalar(&ScalarFunc{
		Name:       "plus_one",
		ReturnType: fixedType(arrow.Int64),
		Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
			in := args[0].ToArray(numRows).(*arrow.Int64Array)
			out := make([]int64, in.Len())
			for i, v := range in.Values() {
				out[i] = v + 1
			}
			return arrow.ArrayDatum(arrow.NewInt64(out)), nil
		},
	})
	got := evalScalar(t, r, "PLUS_ONE", 2, arrow.ArrayDatum(arrow.NewInt64([]int64{1, 2}))).(*arrow.Int64Array)
	if got.Value(1) != 3 {
		t.Fatal("UDF wrong")
	}
}

func TestRegexpFunctions(t *testing.T) {
	r := NewRegistry()
	in := arrow.ArrayDatum(arrow.NewStringFromSlice([]string{"http://a.example.com/x", "nope"}))
	like := evalScalar(t, r, "regexp_like", 2, in, arrow.ScalarDatum(arrow.StringScalar(`^https?://`))).(*arrow.BoolArray)
	if !like.Value(0) || like.Value(1) {
		t.Fatal("regexp_like wrong")
	}
	repl := evalScalar(t, r, "regexp_replace", 2, in,
		arrow.ScalarDatum(arrow.StringScalar(`^https?://([^/]+)/.*$`)),
		arrow.ScalarDatum(arrow.StringScalar("$1"))).(*arrow.StringArray)
	if repl.Value(0) != "a.example.com" || repl.Value(1) != "nope" {
		t.Fatalf("regexp_replace = %q, %q", repl.Value(0), repl.Value(1))
	}
	m := evalScalar(t, r, "regexp_match", 2, in,
		arrow.ScalarDatum(arrow.StringScalar(`example\.[a-z]+`))).(*arrow.StringArray)
	if m.Value(0) != "example.com" || !m.IsNull(1) {
		t.Fatal("regexp_match wrong")
	}
	// bad pattern errors
	f, _ := r.Scalar("regexp_like")
	if _, err := f.Eval([]arrow.Datum{in, arrow.ScalarDatum(arrow.StringScalar("("))}, 2); err == nil {
		t.Fatal("bad pattern must error")
	}
}
