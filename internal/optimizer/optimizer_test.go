package optimizer

import (
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
)

var reg = functions.NewRegistry()

// table builds a MemTable-backed scan source with a known row count.
func table(t *testing.T, rows int64, fields ...arrow.Field) *catalog.MemTable {
	t.Helper()
	schema := arrow.NewSchema(fields...)
	builders := make([]arrow.Builder, len(fields))
	for i, f := range fields {
		builders[i] = arrow.NewBuilder(f.Type)
	}
	for r := int64(0); r < rows; r++ {
		for i, f := range fields {
			switch f.Type.ID {
			case arrow.INT64:
				builders[i].(*arrow.NumericBuilder[int64]).Append(r)
			case arrow.STRING:
				builders[i].(*arrow.StringBuilder).Append("v")
			case arrow.FLOAT64:
				builders[i].(*arrow.NumericBuilder[float64]).Append(float64(r))
			}
		}
	}
	cols := make([]arrow.Array, len(builders))
	for i, b := range builders {
		cols[i] = b.Finish()
	}
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{arrow.NewRecordBatchWithRows(schema, cols, int(rows))}})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func optimize(t *testing.T, plan logical.Plan) logical.Plan {
	t.Helper()
	out, err := New(reg).Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func explain(p logical.Plan) string { return logical.Explain(p) }

func TestConstantFoldingAndBooleanSimplify(t *testing.T) {
	src := table(t, 10, arrow.NewField("a", arrow.Int64, false))
	scan := logical.NewTableScan("t", src)
	// 1 + 2 = 3 folds; true AND (a = 3) simplifies to a = 3.
	pred := logical.And(
		logical.Lit(true),
		logical.Eq(logical.Col("a"), &logical.BinaryExpr{Op: logical.OpAdd, L: logical.Lit(1), R: logical.Lit(2)}),
	)
	plan := optimize(t, &logical.Filter{Input: scan, Predicate: pred})
	text := explain(plan)
	if !strings.Contains(text, "a = 3") {
		t.Fatalf("constant not folded:\n%s", text)
	}
	if strings.Contains(text, "true") {
		t.Fatalf("TRUE conjunct survived:\n%s", text)
	}
	// Constant-false filter becomes an empty relation.
	plan2 := optimize(t, &logical.Filter{Input: scan, Predicate: logical.Lit(false)})
	if _, ok := plan2.(*logical.EmptyRelation); !ok {
		t.Fatalf("false filter should empty the plan:\n%s", explain(plan2))
	}
}

func TestFilterPushdownIntoScan(t *testing.T) {
	src := table(t, 10, arrow.NewField("a", arrow.Int64, false), arrow.NewField("b", arrow.String, false))
	plan, err := logical.NewBuilder(reg).
		Scan("t", src).
		Project(logical.Col("a"), logical.Col("b")).
		Filter(logical.Eq(logical.Col("a"), logical.Lit(1))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	text := explain(optimize(t, plan))
	if !strings.Contains(text, "filters=[") {
		t.Fatalf("filter not pushed into scan:\n%s", text)
	}
}

func TestCrossJoinBecomesInner(t *testing.T) {
	l := table(t, 100, arrow.NewField("a", arrow.Int64, false))
	r := table(t, 100, arrow.NewField("b", arrow.Int64, false))
	rScan, _ := logical.NewBuilder(reg).Scan("r", r).Build()
	plan, err := logical.NewBuilder(reg).
		Scan("l", l).
		CrossJoin(rScan).
		Filter(logical.And(
			logical.Eq(logical.Col("a"), logical.Col("b")),
			&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("a"), R: logical.Lit(5)},
		)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	text := explain(optimize(t, plan))
	if !strings.Contains(text, "Inner Join") {
		t.Fatalf("cross join not converted:\n%s", text)
	}
	if !strings.Contains(text, "on=[") {
		t.Fatalf("equi pair not extracted:\n%s", text)
	}
	// The single-side predicate pushed below the join into the scan.
	if !strings.Contains(text, "TableScan: l filters=") {
		t.Fatalf("side predicate not pushed:\n%s", text)
	}
}

func TestOuterToInnerConversion(t *testing.T) {
	l := table(t, 10, arrow.NewField("a", arrow.Int64, false))
	r := table(t, 10, arrow.NewField("b", arrow.Int64, false))
	rScan, _ := logical.NewBuilder(reg).Scan("r", r).Build()
	plan, err := logical.NewBuilder(reg).
		Scan("l", l).
		Join(rScan, logical.LeftJoin, []logical.EquiPair{{L: logical.Col("a"), R: logical.Col("b")}}, nil).
		Filter(&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("b"), R: logical.Lit(3)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	text := explain(optimize(t, plan))
	if strings.Contains(text, "Left Join") {
		t.Fatalf("null-rejecting filter should convert LEFT to INNER:\n%s", text)
	}
	// IS NULL does NOT convert.
	plan2, _ := logical.NewBuilder(reg).
		Scan("l", l).
		Join(rScan, logical.LeftJoin, []logical.EquiPair{{L: logical.Col("a"), R: logical.Col("b")}}, nil).
		Filter(&logical.IsNull{E: logical.Col("b")}).
		Build()
	text2 := explain(optimize(t, plan2))
	if !strings.Contains(text2, "Left Join") {
		t.Fatalf("IS NULL must preserve LEFT join:\n%s", text2)
	}
}

func TestPruneScansKeepsReferencedColumns(t *testing.T) {
	src := table(t, 10,
		arrow.NewField("a", arrow.Int64, false),
		arrow.NewField("b", arrow.String, false),
		arrow.NewField("c", arrow.Float64, false),
	)
	plan, err := logical.NewBuilder(reg).
		Scan("t", src).
		Filter(&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("c"), R: logical.Lit(1.0)}).
		Project(logical.Col("a")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, plan)
	var scan *logical.TableScan
	logical.VisitPlan(out, func(p logical.Plan) bool {
		if s, ok := p.(*logical.TableScan); ok {
			scan = s
		}
		return true
	})
	if scan == nil || len(scan.Projection) != 2 {
		t.Fatalf("scan should keep exactly a and c:\n%s", explain(out))
	}
}

func TestDecorrelateExists(t *testing.T) {
	orders := table(t, 10, arrow.NewField("o_id", arrow.Int64, false))
	items := table(t, 10, arrow.NewField("i_oid", arrow.Int64, false))
	sub, _ := logical.NewBuilder(reg).
		Scan("items", items).
		Filter(logical.Eq(logical.Col("i_oid"), logical.Col("o_id"))). // correlated
		Build()
	plan, err := logical.NewBuilder(reg).
		Scan("orders", orders).
		Filter(&logical.Exists{Plan: sub}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	text := explain(optimize(t, plan))
	if !strings.Contains(text, "LeftSemi Join") {
		t.Fatalf("EXISTS not decorrelated:\n%s", text)
	}
	// Negated form becomes anti join (via NOT normalization).
	plan2, _ := logical.NewBuilder(reg).
		Scan("orders", orders).
		Filter(&logical.Not{E: &logical.Exists{Plan: sub}}).
		Build()
	text2 := explain(optimize(t, plan2))
	if !strings.Contains(text2, "LeftAnti Join") {
		t.Fatalf("NOT EXISTS not decorrelated:\n%s", text2)
	}
}

func TestDecorrelateScalarAgg(t *testing.T) {
	emp := table(t, 10,
		arrow.NewField("dept", arrow.Int64, false),
		arrow.NewField("sal", arrow.Float64, false),
	)
	// (SELECT avg(sal) FROM emp e2 WHERE e2.dept = emp.dept)
	inner, err := logical.NewBuilder(reg).
		Scan("e2", table(t, 10, arrow.NewField("dept", arrow.Int64, false), arrow.NewField("sal", arrow.Float64, false))).
		Filter(logical.Eq(logical.Col("e2.dept"), logical.Col("emp.dept"))).
		Aggregate(nil, []logical.Expr{&logical.AggFunc{Name: "avg", Args: []logical.Expr{logical.Col("e2.sal")}}}).
		Project(&logical.Column{Name: "avg(e2.sal)"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := logical.NewBuilder(reg).
		Scan("emp", emp).
		Filter(&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("sal"), R: &logical.ScalarSubquery{Plan: inner}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	text := explain(optimize(t, plan))
	if !strings.Contains(text, "Inner Join") || !strings.Contains(text, "Aggregate") {
		t.Fatalf("correlated scalar not regrouped:\n%s", text)
	}
	if strings.Contains(text, "scalar subquery") {
		t.Fatalf("subquery expression survived:\n%s", text)
	}
}

func TestOrFactoring(t *testing.T) {
	src := table(t, 10, arrow.NewField("a", arrow.Int64, false), arrow.NewField("b", arrow.Int64, false))
	// (a=b AND a>1) OR (a=b AND b<5) => a=b AND (a>1 OR b<5)
	pred := &logical.BinaryExpr{Op: logical.OpOr,
		L: logical.And(logical.Eq(logical.Col("a"), logical.Col("b")),
			&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("a"), R: logical.Lit(1)}),
		R: logical.And(logical.Eq(logical.Col("a"), logical.Col("b")),
			&logical.BinaryExpr{Op: logical.OpLt, L: logical.Col("b"), R: logical.Lit(5)}),
	}
	plan, _ := logical.NewBuilder(reg).Scan("t", src).Filter(pred).Build()
	text := explain(optimize(t, plan))
	// After factoring, both conjuncts are scan filters (a=b is a plain
	// column comparison on one table here).
	if strings.Count(text, "a = b") != 1 {
		t.Fatalf("common conjunct not factored:\n%s", text)
	}
}

func TestCustomRuleOrdering(t *testing.T) {
	src := table(t, 10, arrow.NewField("a", arrow.Int64, false))
	applied := []string{}
	mk := func(name string) Rule { return &probeRule{name: name, log: &applied} }
	o := New(reg)
	o.WithRule(mk("last"))
	o.WithRuleFirst(mk("first"))
	plan, _ := logical.NewBuilder(reg).Scan("t", src).Build()
	if _, err := o.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 || applied[0] != "first" || applied[1] != "last" {
		t.Fatalf("rule order = %v", applied)
	}
}

type probeRule struct {
	name string
	log  *[]string
}

func (r *probeRule) Name() string { return r.name }
func (r *probeRule) Apply(p logical.Plan, _ *Context) (logical.Plan, error) {
	*r.log = append(*r.log, r.name)
	return p, nil
}

func TestEstimateRows(t *testing.T) {
	src := table(t, 1000, arrow.NewField("a", arrow.Int64, false))
	scan := logical.NewTableScan("t", src)
	if EstimateRows(scan) != 1000 {
		t.Fatal("scan estimate wrong")
	}
	f := &logical.Filter{Input: scan, Predicate: logical.Lit(true)}
	if EstimateRows(f) != 200 {
		t.Fatalf("filter estimate = %d", EstimateRows(f))
	}
	agg, _ := logical.NewAggregate(scan, nil, []logical.Expr{&logical.AggFunc{Name: "count"}}, reg)
	if EstimateRows(agg) != 1 {
		t.Fatal("ungrouped agg estimate wrong")
	}
	lim := &logical.Limit{Input: scan, Fetch: 7}
	if EstimateRows(lim) != 7 {
		t.Fatal("limit estimate wrong")
	}
}

func TestCSEInAggregate(t *testing.T) {
	src := table(t, 10,
		arrow.NewField("p", arrow.Float64, false),
		arrow.NewField("d", arrow.Float64, false),
	)
	// sum(p*(1-d)) and avg(p*(1-d)) share the product.
	productOf := func() logical.Expr {
		return &logical.BinaryExpr{Op: logical.OpMul, L: logical.Col("p"),
			R: &logical.BinaryExpr{Op: logical.OpSub, L: logical.Lit(1.0), R: logical.Col("d")}}
	}
	plan, err := logical.NewBuilder(reg).
		Scan("t", src).
		Aggregate(nil, []logical.Expr{
			&logical.AggFunc{Name: "sum", Args: []logical.Expr{productOf()}},
			&logical.AggFunc{Name: "avg", Args: []logical.Expr{productOf()}},
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, plan)
	text := explain(out)
	if !strings.Contains(text, "__cse_1") {
		t.Fatalf("shared aggregate argument not factored:\n%s", text)
	}
	// Output names preserved.
	if !strings.Contains(out.Schema().String(), "sum(p * 1 - d)") {
		t.Fatalf("output names changed: %s", out.Schema())
	}
}

func TestCSEInProjection(t *testing.T) {
	src := table(t, 10, arrow.NewField("a", arrow.Float64, false))
	heavy := func() logical.Expr {
		return &logical.ScalarFunc{Name: "sqrt", Args: []logical.Expr{logical.Col("a")}}
	}
	plan, err := logical.NewBuilder(reg).
		Scan("t", src).
		Project(
			&logical.Alias{E: &logical.BinaryExpr{Op: logical.OpAdd, L: heavy(), R: logical.Lit(1.0)}, Name: "x"},
			&logical.Alias{E: &logical.BinaryExpr{Op: logical.OpMul, L: heavy(), R: logical.Lit(2.0)}, Name: "y"},
		).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, plan)
	if !strings.Contains(explain(out), "__cse_1") {
		t.Fatalf("shared projection subexpr not factored:\n%s", explain(out))
	}
}

func TestEliminateDistinctOverGroupBy(t *testing.T) {
	src := table(t, 10, arrow.NewField("a", arrow.Int64, false))
	agg, err := logical.NewAggregate(logical.NewTableScan("t", src),
		[]logical.Expr{logical.Col("a")}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, &logical.Distinct{Input: agg})
	if _, ok := out.(*logical.Distinct); ok {
		t.Fatalf("distinct over grouped keys should be removed:\n%s", explain(out))
	}
	// Nested distincts collapse.
	out2 := optimize(t, &logical.Distinct{Input: &logical.Distinct{Input: logical.NewTableScan("t", src)}})
	if d, ok := out2.(*logical.Distinct); !ok {
		t.Fatal("outer distinct must remain")
	} else if _, ok := d.Input.(*logical.Distinct); ok {
		t.Fatal("inner distinct must collapse")
	}
}
