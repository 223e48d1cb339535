package logical

import (
	"strings"
	"testing"

	"gofusion/internal/arrow"
)

// fakeSource is a minimal TableSource.
type fakeSource struct{ schema *arrow.Schema }

func (f *fakeSource) Schema() *arrow.Schema { return f.schema }

// stubRegistry resolves a few function names for typing tests.
type stubRegistry struct{}

func (stubRegistry) ScalarReturnType(name string, args []*arrow.DataType) (*arrow.DataType, error) {
	return arrow.String, nil
}
func (stubRegistry) AggReturnType(name string, args []*arrow.DataType) (*arrow.DataType, error) {
	if name == "count" {
		return arrow.Int64, nil
	}
	if len(args) > 0 {
		return args[0], nil
	}
	return arrow.Int64, nil
}
func (stubRegistry) WindowReturnType(string, []*arrow.DataType) (*arrow.DataType, error) {
	return arrow.Int64, nil
}

func testScan() *TableScan {
	return NewTableScan("t", &fakeSource{schema: arrow.NewSchema(
		arrow.NewField("a", arrow.Int64, false),
		arrow.NewField("b", arrow.String, true),
		arrow.NewField("c", arrow.Float64, true),
	)})
}

func TestSchemaResolution(t *testing.T) {
	scan := testScan()
	s := scan.Schema()
	if i, err := s.Resolve("", "b"); err != nil || i != 1 {
		t.Fatalf("resolve b: %d %v", i, err)
	}
	if i, err := s.Resolve("t", "a"); err != nil || i != 0 {
		t.Fatalf("resolve t.a: %d %v", i, err)
	}
	if _, err := s.Resolve("", "zz"); err == nil {
		t.Fatal("missing column must error")
	}
	var nf *ErrNotFound
	_, err := s.Resolve("", "zz")
	if !asErr(err, &nf) {
		t.Fatal("want ErrNotFound")
	}
	// Ambiguity across qualifiers.
	merged := s.Merge(FromArrow("u", arrow.NewSchema(arrow.NewField("a", arrow.Int64, false))))
	if _, err := merged.Resolve("", "a"); err == nil {
		t.Fatal("ambiguous column must error")
	}
	if i, err := merged.Resolve("u", "a"); err != nil || i != 3 {
		t.Fatalf("qualified resolves: %d %v", i, err)
	}
}

// TestSchemaResolveFoldsCaseWithoutAllocating: names match regardless of
// case, and a qualified hit allocates nothing (planning resolves every
// column of every expression, so a wide statement would otherwise pay an
// allocation per field per lookup).
func TestSchemaResolveFoldsCaseWithoutAllocating(t *testing.T) {
	s := FromArrow("Hits", arrow.NewSchema(
		arrow.NewField("WatchID", arrow.Int64, false),
		arrow.NewField("ResolutionWidth", arrow.Int64, false),
	))
	if i, err := s.Resolve("hITS", "resolutionwidth"); err != nil || i != 1 {
		t.Fatalf("resolve hITS.resolutionwidth: %d %v", i, err)
	}
	if i, err := s.Resolve("", "WATCHID"); err != nil || i != 0 {
		t.Fatalf("resolve WATCHID: %d %v", i, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Resolve("hits", "RESOLUTIONWIDTH"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("qualified mixed-case hit allocated %.1f times per call, want 0", allocs)
	}
}

func asErr[T error](err error, target *T) bool {
	for err != nil {
		if e, ok := err.(T); ok {
			*target = e
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestBuilderChain(t *testing.T) {
	reg := stubRegistry{}
	plan, err := NewBuilder(reg).
		Scan("t", &fakeSource{schema: testScan().Source.Schema()}).
		Filter(Eq(Col("a"), Lit(1))).
		Project(Col("a"), &Alias{E: Col("b"), Name: "bee"}).
		Sort(SortAsc(Col("a"))).
		Limit(0, 10).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(plan)
	for _, want := range []string{"Limit", "Sort", "Projection", "Filter", "TableScan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain missing %s:\n%s", want, text)
		}
	}
	if plan.Schema().Len() != 2 || plan.Schema().Field(1).Name != "bee" {
		t.Fatalf("schema: %s", plan.Schema())
	}
}

func TestBuilderErrorsDefer(t *testing.T) {
	reg := stubRegistry{}
	_, err := NewBuilder(reg).Project(Col("x")).Build()
	if err == nil {
		t.Fatal("projection without input must fail at Build")
	}
	_, err = NewBuilder(reg).
		Scan("t", &fakeSource{schema: testScan().Source.Schema()}).
		Project(Col("missing")).
		Build()
	if err == nil {
		t.Fatal("bad column must fail")
	}
}

func TestJoinSchemas(t *testing.T) {
	left := testScan()
	right := NewTableScan("u", &fakeSource{schema: arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
	)})
	inner := NewJoin(left, right, InnerJoin, nil, nil)
	if inner.Schema().Len() != 4 {
		t.Fatal("inner join schema wrong")
	}
	lj := NewJoin(left, right, LeftJoin, nil, nil)
	if !lj.Schema().Field(3).Nullable {
		t.Fatal("left join right side must become nullable")
	}
	semi := NewJoin(left, right, LeftSemiJoin, nil, nil)
	if semi.Schema().Len() != 3 {
		t.Fatal("semi join keeps left only")
	}
	anti := NewJoin(left, right, RightAntiJoin, nil, nil)
	if anti.Schema().Len() != 1 {
		t.Fatal("right anti keeps right only")
	}
}

func TestTransformExprRewrites(t *testing.T) {
	e := Expr(&BinaryExpr{Op: OpAdd, L: Col("a"), R: &BinaryExpr{Op: OpMul, L: Col("b"), R: Lit(2)}})
	out, err := TransformExpr(e, func(x Expr) (Expr, error) {
		if c, ok := x.(*Column); ok && c.Name == "b" {
			return Col("z"), nil
		}
		return x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "a + z * 2" {
		t.Fatalf("rewrite = %s", out)
	}
	// Original untouched.
	if e.String() != "a + b * 2" {
		t.Fatal("transform must not mutate input")
	}
}

func TestCollectAndPredicates(t *testing.T) {
	e := And(Eq(Col("a"), Lit(1)), Eq(Col("b"), Col("t.c")))
	cols := CollectColumns(e)
	if len(cols) != 3 {
		t.Fatalf("collect = %d", len(cols))
	}
	conj := SplitConjunction(e)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if And() != nil {
		t.Fatal("empty And must be nil")
	}
	agg := &AggFunc{Name: "sum", Args: []Expr{Col("a")}}
	if !HasAggregates(agg) || HasAggregates(Col("a")) {
		t.Fatal("HasAggregates wrong")
	}
	w := &WindowFunc{Name: "row_number", Frame: DefaultFrame()}
	if !HasWindow(w) || HasAggregates(w) {
		t.Fatal("window detection wrong")
	}
	sub := &Exists{}
	if !HasSubquery(sub) {
		t.Fatal("HasSubquery wrong")
	}
}

func TestTypeOfExpressions(t *testing.T) {
	reg := stubRegistry{}
	schema := testScan().Schema()
	cases := []struct {
		e    Expr
		want arrow.TypeID
	}{
		{Col("a"), arrow.INT64},
		{Eq(Col("a"), Lit(1)), arrow.BOOL},
		{&BinaryExpr{Op: OpAdd, L: Col("a"), R: Col("c")}, arrow.FLOAT64},
		{&BinaryExpr{Op: OpConcat, L: Col("b"), R: Lit("x")}, arrow.STRING},
		{&Cast{E: Col("a"), To: arrow.Float32}, arrow.FLOAT32},
		{&Case{Whens: []WhenClause{{When: Lit(true), Then: Lit(1)}}, Else: Lit(2.5)}, arrow.FLOAT64},
		{&IsNull{E: Col("b")}, arrow.BOOL},
		{&Negative{E: Col("c")}, arrow.FLOAT64},
	}
	for _, c := range cases {
		got, err := TypeOf(c.e, schema, reg)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if got.ID != c.want {
			t.Fatalf("%s: type %s", c.e, got)
		}
	}
	// Temporal arithmetic.
	dschema := NewSchema(QField{Name: "d", Type: arrow.Date32}, QField{Name: "i", Type: arrow.Interval})
	got, err := TypeOf(&BinaryExpr{Op: OpAdd, L: Col("d"), R: Col("i")}, dschema, reg)
	if err != nil || got.ID != arrow.DATE32 {
		t.Fatalf("date+interval = %v %v", got, err)
	}
	got, err = TypeOf(&BinaryExpr{Op: OpSub, L: Col("d"), R: Col("d")}, dschema, reg)
	if err != nil || got.ID != arrow.INTERVAL {
		t.Fatalf("date-date = %v %v", got, err)
	}
}

func TestPromoteNumeric(t *testing.T) {
	cases := []struct {
		a, b *arrow.DataType
		want arrow.TypeID
	}{
		{arrow.Int32, arrow.Int64, arrow.INT64},
		{arrow.Int64, arrow.Float64, arrow.FLOAT64},
		{arrow.Decimal(12, 2), arrow.Int64, arrow.DECIMAL},
		{arrow.Decimal(12, 2), arrow.Float64, arrow.FLOAT64},
		{arrow.Uint16, arrow.Int8, arrow.INT64},
		{arrow.Date32, arrow.Timestamp, arrow.TIMESTAMP},
	}
	for _, c := range cases {
		got, err := PromoteNumeric(c.a, c.b)
		if err != nil {
			t.Fatalf("%s+%s: %v", c.a, c.b, err)
		}
		if got.ID != c.want {
			t.Fatalf("%s+%s = %s", c.a, c.b, got)
		}
	}
	if _, err := PromoteNumeric(arrow.String, arrow.Int64); err == nil {
		t.Fatal("string/int must not promote")
	}
}

func TestWithChildrenRebuild(t *testing.T) {
	scan := testScan()
	filter := &Filter{Input: scan, Predicate: Eq(Col("a"), Lit(1))}
	newScan := scan.WithProjection([]int{0})
	rebuilt := filter.WithChildren([]Plan{newScan}).(*Filter)
	if rebuilt.Input != newScan {
		t.Fatal("WithChildren must swap input")
	}
	if rebuilt.Schema().Len() != 1 {
		t.Fatal("filter schema must follow input")
	}
	// Window schema tail recomputation (regression for the pruning bug).
	reg := stubRegistry{}
	win, err := NewWindow(scan, []Expr{&WindowFunc{Name: "row_number", Frame: DefaultFrame()}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	rw := win.WithChildren([]Plan{newScan}).(*Window)
	if rw.Schema().Len() != 2 {
		t.Fatalf("window schema after prune = %s", rw.Schema())
	}
}

func TestValuesSchema(t *testing.T) {
	reg := stubRegistry{}
	v, err := NewValues([][]Expr{{Lit(nil), Lit("a")}, {Lit(1), Lit("b")}}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Schema().Field(0).Type.ID != arrow.INT64 {
		t.Fatal("NULL first-row type must widen from later rows")
	}
	if _, err := NewValues(nil, reg); err == nil {
		t.Fatal("empty VALUES must error")
	}
}

func TestOutputName(t *testing.T) {
	if OutputName(&Alias{E: Col("x"), Name: "y"}) != "y" {
		t.Fatal("alias name")
	}
	if OutputName(Col("t.x")) != "x" {
		t.Fatal("column name")
	}
	agg := &AggFunc{Name: "count"}
	if OutputName(agg) != "count(*)" {
		t.Fatalf("agg name = %s", OutputName(agg))
	}
}
