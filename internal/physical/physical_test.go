package physical

import (
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
)

var reg = functions.NewRegistry()

func testBatch() *arrow.RecordBatch {
	schema := arrow.NewSchema(
		arrow.NewField("i", arrow.Int64, true),
		arrow.NewField("f", arrow.Float64, true),
		arrow.NewField("s", arrow.String, true),
		arrow.NewField("d", arrow.Date32, false),
	)
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	ib.Append(1)
	ib.Append(2)
	ib.AppendNull()
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	fb.Append(1.5)
	fb.AppendNull()
	fb.Append(3.5)
	sb := arrow.NewStringBuilder(arrow.String)
	sb.Append("apple")
	sb.Append("banana")
	sb.Append("apricot")
	db := arrow.NewNumericBuilder[int32](arrow.Date32)
	d0, _ := arrow.ParseDate32("2024-03-15")
	for k := 0; k < 3; k++ {
		db.Append(d0 + int32(k))
	}
	return arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), fb.Finish(), sb.Finish(), db.Finish()})
}

func testSchema() *logical.Schema {
	return logical.FromArrow("t", testBatch().Schema())
}

func compile(t *testing.T, e logical.Expr) PhysicalExpr {
	t.Helper()
	pe, err := NewCompiler(testSchema(), reg).Compile(e)
	if err != nil {
		t.Fatalf("compiling %s: %v", e, err)
	}
	return pe
}

func evalOn(t *testing.T, e logical.Expr) arrow.Array {
	t.Helper()
	arr, err := EvalToArray(compile(t, e), testBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestCompileColumnAndLiteral(t *testing.T) {
	out := evalOn(t, logical.Col("i"))
	if out.(*arrow.Int64Array).Value(0) != 1 || !out.IsNull(2) {
		t.Fatal("column eval wrong")
	}
	pe := compile(t, logical.Lit(42))
	d, err := pe.Evaluate(testBatch(), nil)
	if err != nil || d.IsArray() || d.ScalarValue().AsInt64() != 42 {
		t.Fatal("literal eval wrong")
	}
}

func TestCompileCoercion(t *testing.T) {
	// int column + float literal coerces to float64.
	out := evalOn(t, &logical.BinaryExpr{Op: logical.OpAdd, L: logical.Col("i"), R: logical.Lit(0.5)})
	if out.DataType().ID != arrow.FLOAT64 {
		t.Fatalf("type = %s", out.DataType())
	}
	if out.(*arrow.Float64Array).Value(0) != 1.5 {
		t.Fatal("coerced add wrong")
	}
	// comparison between int and float works too.
	out2 := evalOn(t, &logical.BinaryExpr{Op: logical.OpLt, L: logical.Col("i"), R: logical.Lit(1.5)})
	ba := out2.(*arrow.BoolArray)
	if !ba.Value(0) || ba.Value(1) || !ba.IsNull(2) {
		t.Fatal("coerced compare wrong")
	}
	// string compared with int casts to string.
	out3 := evalOn(t, &logical.BinaryExpr{Op: logical.OpEq, L: logical.Col("s"), R: logical.Lit("apple")})
	if !out3.(*arrow.BoolArray).Value(0) {
		t.Fatal("string compare wrong")
	}
}

func TestCompileDecimalDivisionRewrite(t *testing.T) {
	schema := logical.NewSchema(
		logical.QField{Name: "d1", Type: arrow.Decimal(12, 2)},
		logical.QField{Name: "d2", Type: arrow.Decimal(12, 2)},
	)
	pe, err := NewCompiler(schema, reg).Compile(
		&logical.BinaryExpr{Op: logical.OpDiv, L: logical.Col("d1"), R: logical.Col("d2")})
	if err != nil {
		t.Fatal(err)
	}
	if pe.DataType().ID != arrow.FLOAT64 {
		t.Fatalf("decimal division must produce float, got %s", pe.DataType())
	}
	b := arrow.NewRecordBatch(schema.ToArrow(), []arrow.Array{
		arrow.NewNumeric(arrow.Decimal(12, 2), []int64{300}, nil), // 3.00
		arrow.NewNumeric(arrow.Decimal(12, 2), []int64{150}, nil), // 1.50
	})
	out, err := EvalToArray(pe, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.(*arrow.Float64Array).Value(0) != 2.0 {
		t.Fatalf("3.00/1.50 = %v", out.GetScalar(0))
	}
}

func TestDateIntervalArithmetic(t *testing.T) {
	iv := arrow.NewScalar(arrow.Interval, arrow.MonthDayMicro{Months: 1, Days: 2})
	out := evalOn(t, &logical.BinaryExpr{Op: logical.OpAdd, L: logical.Col("d"), R: &logical.Literal{Value: iv}})
	if out.DataType().ID != arrow.DATE32 {
		t.Fatalf("date+interval type = %s", out.DataType())
	}
	if arrow.FormatDate32(out.(*arrow.Int32Array).Value(0)) != "2024-04-17" {
		t.Fatalf("date math = %s", arrow.FormatDate32(out.(*arrow.Int32Array).Value(0)))
	}
	// date - date = interval
	diff := evalOn(t, &logical.BinaryExpr{Op: logical.OpSub, L: logical.Col("d"), R: logical.Col("d")})
	if diff.DataType().ID != arrow.INTERVAL {
		t.Fatal("date-date must be interval")
	}
}

func TestCaseExpr(t *testing.T) {
	e := &logical.Case{
		Whens: []logical.WhenClause{
			{When: &logical.BinaryExpr{Op: logical.OpEq, L: logical.Col("i"), R: logical.Lit(1)}, Then: logical.Lit("one")},
			{When: &logical.BinaryExpr{Op: logical.OpEq, L: logical.Col("i"), R: logical.Lit(2)}, Then: logical.Lit("two")},
		},
		Else: logical.Lit("other"),
	}
	out := evalOn(t, e).(*arrow.StringArray)
	if out.Value(0) != "one" || out.Value(1) != "two" || out.Value(2) != "other" {
		t.Fatalf("case wrong: %v", out)
	}
	// Operand form with no ELSE gives NULL.
	e2 := &logical.Case{
		Operand: logical.Col("s"),
		Whens:   []logical.WhenClause{{When: logical.Lit("apple"), Then: logical.Lit(10)}},
	}
	out2 := evalOn(t, e2)
	if out2.GetScalar(0).AsInt64() != 10 || !out2.IsNull(1) {
		t.Fatal("operand case wrong")
	}
}

func TestInListAndLike(t *testing.T) {
	in := &logical.InList{E: logical.Col("s"), List: []logical.Expr{logical.Lit("apple"), logical.Lit("apricot")}}
	out := evalOn(t, in).(*arrow.BoolArray)
	if !out.Value(0) || out.Value(1) || !out.Value(2) {
		t.Fatal("in list wrong")
	}
	notIn := &logical.InList{E: logical.Col("s"), List: []logical.Expr{logical.Lit("apple")}, Negated: true}
	out2 := evalOn(t, notIn).(*arrow.BoolArray)
	if out2.Value(0) || !out2.Value(1) {
		t.Fatal("not in wrong")
	}
	like := &logical.Like{E: logical.Col("s"), Pattern: logical.Lit("ap%")}
	out3 := evalOn(t, like).(*arrow.BoolArray)
	if !out3.Value(0) || out3.Value(1) || !out3.Value(2) {
		t.Fatal("like wrong")
	}
	// IN with ints coerces literal items to the column kind.
	inInt := &logical.InList{E: logical.Col("i"), List: []logical.Expr{logical.Lit(2), logical.Lit(9)}}
	out4 := evalOn(t, inInt).(*arrow.BoolArray)
	if out4.Value(0) || !out4.Value(1) {
		t.Fatal("int in-list wrong")
	}
}

func TestBetweenRewrite(t *testing.T) {
	e := &logical.Between{E: logical.Col("i"), Low: logical.Lit(1), High: logical.Lit(1)}
	out := evalOn(t, e).(*arrow.BoolArray)
	if !out.Value(0) || out.Value(1) {
		t.Fatal("between wrong")
	}
	neg := &logical.Between{E: logical.Col("i"), Low: logical.Lit(1), High: logical.Lit(1), Negated: true}
	out2 := evalOn(t, neg).(*arrow.BoolArray)
	if out2.Value(0) || !out2.Value(1) {
		t.Fatal("not between wrong")
	}
}

func TestScalarFunctionCall(t *testing.T) {
	e := &logical.ScalarFunc{Name: "upper", Args: []logical.Expr{logical.Col("s")}}
	out := evalOn(t, e).(*arrow.StringArray)
	if out.Value(0) != "APPLE" {
		t.Fatal("function call wrong")
	}
	if _, err := NewCompiler(testSchema(), reg).Compile(&logical.ScalarFunc{Name: "nope"}); err == nil {
		t.Fatal("unknown function must fail at compile time")
	}
}

func TestAggregateOutsideContextFails(t *testing.T) {
	_, err := NewCompiler(testSchema(), reg).Compile(&logical.AggFunc{Name: "sum", Args: []logical.Expr{logical.Col("i")}})
	if err == nil {
		t.Fatal("aggregate must not compile as scalar")
	}
}

func TestEvalPredicateSemantics(t *testing.T) {
	pe := compile(t, &logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("f"), R: logical.Lit(2.0)})
	mask, err := EvalPredicate(pe, testBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Value(0) || !mask.IsNull(1) || !mask.Value(2) {
		t.Fatal("predicate mask wrong")
	}
	// Non-boolean predicate is an error.
	if _, err := EvalPredicate(compile(t, logical.Col("i")), testBatch(), nil); err == nil {
		t.Fatal("non-boolean predicate must error")
	}
}

func TestIsNullNotNegative(t *testing.T) {
	isNull := evalOn(t, &logical.IsNull{E: logical.Col("i")}).(*arrow.BoolArray)
	if isNull.Value(0) || !isNull.Value(2) {
		t.Fatal("is null wrong")
	}
	notNull := evalOn(t, &logical.IsNull{E: logical.Col("i"), Negated: true}).(*arrow.BoolArray)
	if !notNull.Value(0) || notNull.Value(2) {
		t.Fatal("is not null wrong")
	}
	neg := evalOn(t, &logical.Negative{E: logical.Col("i")})
	if neg.GetScalar(0).AsInt64() != -1 {
		t.Fatal("negative wrong")
	}
	not := evalOn(t, &logical.Not{E: &logical.IsNull{E: logical.Col("i")}}).(*arrow.BoolArray)
	if !not.Value(0) || not.Value(2) {
		t.Fatal("not wrong")
	}
}

func TestConcatOperator(t *testing.T) {
	e := &logical.BinaryExpr{Op: logical.OpConcat, L: logical.Col("s"), R: logical.Lit("!")}
	out := evalOn(t, e).(*arrow.StringArray)
	if out.Value(0) != "apple!" {
		t.Fatal("concat wrong")
	}
	// Concat with a non-string side casts.
	e2 := &logical.BinaryExpr{Op: logical.OpConcat, L: logical.Col("i"), R: logical.Lit("x")}
	out2 := evalOn(t, e2).(*arrow.StringArray)
	if out2.Value(0) != "1x" {
		t.Fatalf("cast concat = %q", out2.Value(0))
	}
}

// TestNarrowIntegerArithmeticWidensInKernel: a narrow integer column against
// an Int64 literal compiles without a cast on the column (the kernel widens
// in its loop) and evaluates to exactly what cast-then-op does — type,
// values, validity and wrap-around — with the literal on either side.
func TestNarrowIntegerArithmeticWidensInKernel(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("w", arrow.Int16, true), arrow.NewField("u", arrow.Uint32, true))
	wb := arrow.NewNumericBuilder[int16](arrow.Int16)
	ub := arrow.NewNumericBuilder[uint32](arrow.Uint32)
	for _, v := range []int16{0, 1, -1, 1920, -32768, 32767} {
		wb.Append(v)
		ub.Append(uint32(int32(v)))
	}
	wb.AppendNull()
	ub.AppendNull()
	batch := arrow.NewRecordBatch(schema, []arrow.Array{wb.Finish(), ub.Finish()})
	comp := NewCompiler(logical.FromArrow("t", schema), reg)

	for _, col := range []string{"w", "u"} {
		for _, op := range []logical.BinOp{logical.OpAdd, logical.OpSub, logical.OpMul, logical.OpDiv, logical.OpMod} {
			for _, lit := range []int64{7, -3, 1 << 60} {
				for _, litLeft := range []bool{false, true} {
					narrow := logical.Expr(logical.Col(col))
					cast := logical.Expr(&logical.Cast{E: narrow, To: arrow.Int64})
					build := func(operand logical.Expr) logical.Expr {
						if litLeft {
							return &logical.BinaryExpr{Op: op, L: logical.Lit(lit), R: operand}
						}
						return &logical.BinaryExpr{Op: op, L: operand, R: logical.Lit(lit)}
					}
					pe, err := comp.Compile(build(narrow))
					if err != nil {
						t.Fatal(err)
					}
					bin := pe.(*BinaryExpr)
					if _, ok := bin.L.(*CastExpr); ok {
						t.Fatalf("%s: left operand is cast", pe)
					}
					if _, ok := bin.R.(*CastExpr); ok {
						t.Fatalf("%s: right operand is cast", pe)
					}
					if pe.DataType().ID != arrow.INT64 {
						t.Fatalf("%s: compiled type %s", pe, pe.DataType())
					}
					ref, err := comp.Compile(build(cast))
					if err != nil {
						t.Fatal(err)
					}
					got, gerr := EvalToArray(pe, batch, nil)
					want, werr := EvalToArray(ref, batch, nil)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s: err %v, cast-then-op err %v", pe, gerr, werr)
					}
					if gerr != nil {
						continue // e.g. literal % 0
					}
					if !got.DataType().Equal(arrow.Int64) {
						t.Fatalf("%s: evaluated type %s", pe, got.DataType())
					}
					for i := 0; i < batch.NumRows(); i++ {
						if got.IsNull(i) != want.IsNull(i) || (!got.IsNull(i) &&
							got.(*arrow.Int64Array).Value(i) != want.(*arrow.Int64Array).Value(i)) {
							t.Fatalf("%s row %d: %v, cast-then-op gives %v", pe, i, got.GetScalar(i), want.GetScalar(i))
						}
					}
				}
			}
		}
	}
}

func TestLikeExprString(t *testing.T) {
	col := NewColumnExpr(2, "s", arrow.String)
	for _, c := range []struct {
		negated, fold bool
		want          string
	}{
		{false, false, `s@2 LIKE "a%"`},
		{true, false, `s@2 NOT LIKE "a%"`},
		{false, true, `s@2 ILIKE "a%"`},
		{true, true, `s@2 NOT ILIKE "a%"`},
	} {
		e, err := NewLikeExpr(col, "a%", c.negated, c.fold)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.String(); got != c.want {
			t.Errorf("negated=%v fold=%v: %s, want %s", c.negated, c.fold, got, c.want)
		}
	}
}
