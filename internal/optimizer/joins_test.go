package optimizer

import (
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/logical"
)

// fromList plans SELECT * FROM scans[0], scans[1], ... WHERE pred the way
// the planner lowers a FROM list: left-deep cross joins in FROM order.
func fromList(t *testing.T, pred logical.Expr, scans ...logical.Plan) logical.Plan {
	t.Helper()
	plan := scans[0]
	for _, s := range scans[1:] {
		plan = logical.NewJoin(plan, s, logical.CrossJoin, nil, nil)
	}
	return &logical.Filter{Input: plan, Predicate: pred}
}

func scanOf(name string, src logical.TableSource) logical.Plan {
	return logical.NewTableScan(name, src)
}

// joinsOf lists the plan's joins top-down.
func joinsOf(p logical.Plan) []*logical.Join {
	var out []*logical.Join
	logical.VisitPlan(p, func(n logical.Plan) bool {
		if j, ok := n.(*logical.Join); ok {
			out = append(out, j)
		}
		return true
	})
	return out
}

func scanName(p logical.Plan) string {
	if s, ok := p.(*logical.TableScan); ok {
		return s.Name
	}
	return ""
}

func TestJoinOrderBuildsOnSmallerSide(t *testing.T) {
	big := table(t, 10000, arrow.NewField("a", arrow.Int64, false))
	small := table(t, 10, arrow.NewField("b", arrow.Int64, false))
	rScan, _ := logical.NewBuilder(reg).Scan("small", small).Build()
	plan, err := logical.NewBuilder(reg).
		Scan("big", big).
		Join(rScan, logical.InnerJoin, []logical.EquiPair{{L: logical.Col("a"), R: logical.Col("b")}}, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	out := optimize(t, plan)
	// After the swap the join's left child scans the small table.
	found := false
	for _, j := range joinsOf(out) {
		if scanName(j.Left) == "small" {
			found = true
		}
	}
	if !found {
		t.Fatalf("small side should become the build side:\n%s", explain(out))
	}
	// Output schema order preserved.
	if out.Schema().Field(0).Name != "a" {
		t.Fatalf("schema order changed: %s", out.Schema())
	}
}

// TestJoinOrderFollowsJoinGraph is q9's shape: FROM part, supplier,
// lineitem with no predicate linking part to supplier. The rule joins
// lineitem before supplier, so no cross product remains, builds each join
// on its smaller side, and restores the FROM-order schema with a single
// projection over the region.
func TestJoinOrderFollowsJoinGraph(t *testing.T) {
	part := table(t, 200, arrow.NewField("p_partkey", arrow.Int64, false))
	supplier := table(t, 100, arrow.NewField("s_suppkey", arrow.Int64, false))
	lineitem := table(t, 5000, arrow.NewField("l_partkey", arrow.Int64, false), arrow.NewField("l_suppkey", arrow.Int64, false))
	pred := logical.And(
		logical.Eq(logical.Col("p_partkey"), logical.Col("l_partkey")),
		logical.Eq(logical.Col("s_suppkey"), logical.Col("l_suppkey")))
	in := fromList(t, pred, scanOf("part", part), scanOf("supplier", supplier), scanOf("lineitem", lineitem))
	out := optimize(t, in)
	text := explain(out)
	if strings.Contains(text, "Cross Join") {
		t.Fatalf("connected FROM list kept a cross join:\n%s", text)
	}
	joins := joinsOf(out)
	if len(joins) != 2 {
		t.Fatalf("want 2 joins:\n%s", text)
	}
	// Top: supplier builds against part ⋈ lineitem; below: part builds
	// against lineitem.
	if scanName(joins[0].Left) != "supplier" || scanName(joins[1].Left) != "part" || scanName(joins[1].Right) != "lineitem" {
		t.Fatalf("unexpected join order or build sides:\n%s", text)
	}
	if n := strings.Count(text, "Projection:"); n != 1 {
		t.Fatalf("want one schema-restoring projection, got %d:\n%s", n, text)
	}
	for i, want := range []string{"p_partkey", "s_suppkey", "l_partkey", "l_suppkey"} {
		if got := out.Schema().Field(i).Name; got != want {
			t.Fatalf("field %d = %s, want %s: %s", i, got, want, out.Schema())
		}
	}
}

// TestJoinOrderCrossJoinsUnlinkedInputLast: in FROM a, x, b WHERE a.k =
// b.k, x is linked to nothing, so a and b join first and x is
// cross-joined last.
func TestJoinOrderCrossJoinsUnlinkedInputLast(t *testing.T) {
	a := table(t, 50, arrow.NewField("ak", arrow.Int64, false))
	x := table(t, 3, arrow.NewField("xv", arrow.Int64, false))
	b := table(t, 40, arrow.NewField("bk", arrow.Int64, false))
	in := fromList(t, logical.Eq(logical.Col("ak"), logical.Col("bk")),
		scanOf("a", a), scanOf("x", x), scanOf("b", b))
	out := optimize(t, in)
	joins := joinsOf(out)
	if len(joins) != 2 || joins[0].Type != logical.CrossJoin || joins[1].Type != logical.InnerJoin {
		t.Fatalf("want a cross join over an inner join:\n%s", explain(out))
	}
	top := joins[0]
	if scanName(top.Left) != "x" && scanName(top.Right) != "x" {
		t.Fatalf("the unlinked input is not the last join's input:\n%s", explain(out))
	}
	for i, want := range []string{"ak", "xv", "bk"} {
		if got := out.Schema().Field(i).Name; got != want {
			t.Fatalf("field %d = %s, want %s: %s", i, got, want, out.Schema())
		}
	}
}

// TestJoinOrderKeepsUnboundedBuildSide: an unsealed stream has no row
// estimate (-1), so a region reading it keeps its connected FROM order and
// swaps no join, even where the other input is tiny.
func TestJoinOrderKeepsUnboundedBuildSide(t *testing.T) {
	stream := catalog.NewStreamTable(arrow.NewSchema(arrow.NewField("sk", arrow.Int64, false)))
	if EstimateRows(scanOf("s", stream)) != -1 {
		t.Fatal("unsealed stream should have no estimate")
	}
	d1 := table(t, 5, arrow.NewField("d1k", arrow.Int64, false))
	d2 := table(t, 5, arrow.NewField("d2k", arrow.Int64, false))
	pred := logical.And(
		logical.Eq(logical.Col("sk"), logical.Col("d1k")),
		logical.Eq(logical.Col("sk"), logical.Col("d2k")))
	out := optimize(t, fromList(t, pred, scanOf("s", stream), scanOf("d1", d1), scanOf("d2", d2)))
	joins := joinsOf(out)
	if len(joins) != 2 {
		t.Fatalf("want 2 joins:\n%s", explain(out))
	}
	if joins[0].Left != joins[1] || scanName(joins[0].Right) != "d2" ||
		scanName(joins[1].Left) != "s" || scanName(joins[1].Right) != "d1" {
		t.Fatalf("a region over an unbounded input changed order or build side:\n%s", explain(out))
	}
}

// TestJoinOrderKeepsStreamLastInFromOrder: a stream last in FROM order is
// the probe side of the FROM-order plan, and reordering its region would
// move it onto a build side. In FROM x, s, b WHERE s.k = b.k (x linked to
// nothing) and FROM d1, d2, s WHERE d1.k = s.k AND d2.k = s.k, the region
// keeps FROM order: s stays the right input of its join.
func TestJoinOrderKeepsStreamLastInFromOrder(t *testing.T) {
	x := table(t, 5, arrow.NewField("xv", arrow.Int64, false))
	b := table(t, 5, arrow.NewField("bk", arrow.Int64, false))
	d1 := table(t, 5, arrow.NewField("d1k", arrow.Int64, false))
	d2 := table(t, 5, arrow.NewField("d2k", arrow.Int64, false))
	for _, c := range []struct {
		name   string
		pred   logical.Expr
		inputs []string
		tables []logical.TableSource
	}{
		{"x,s,b", logical.Eq(logical.Col("sk"), logical.Col("bk")),
			[]string{"x", "s", "b"}, []logical.TableSource{x, nil, b}},
		{"d1,d2,s", logical.And(
			logical.Eq(logical.Col("d1k"), logical.Col("sk")),
			logical.Eq(logical.Col("d2k"), logical.Col("sk"))),
			[]string{"d1", "d2", "s"}, []logical.TableSource{d1, d2, nil}},
	} {
		scans := make([]logical.Plan, len(c.inputs))
		for i, name := range c.inputs {
			src := c.tables[i]
			if src == nil {
				src = catalog.NewStreamTable(arrow.NewSchema(arrow.NewField("sk", arrow.Int64, false)))
			}
			scans[i] = scanOf(name, src)
		}
		out := optimize(t, fromList(t, c.pred, scans...))
		joins := joinsOf(out)
		if len(joins) != 2 || joins[0].Left != joins[1] ||
			scanName(joins[1].Left) != c.inputs[0] || scanName(joins[1].Right) != c.inputs[1] ||
			scanName(joins[0].Right) != c.inputs[2] {
			t.Fatalf("%s: a region over an unbounded input left FROM order:\n%s", c.name, explain(out))
		}
		if joins[1].Type != logical.CrossJoin || joins[0].Type != logical.InnerJoin {
			t.Fatalf("%s: want an inner join over a cross join:\n%s", c.name, explain(out))
		}
	}
}

// TestJoinOrderSwapsSemiJoin: a left semi join whose left input is larger
// becomes a right semi join over swapped inputs, with the same filter and
// output schema; an unknown estimate keeps it as it is.
func TestJoinOrderSwapsSemiJoin(t *testing.T) {
	big := table(t, 1000, arrow.NewField("a", arrow.Int64, false), arrow.NewField("as", arrow.Int64, false))
	small := table(t, 10, arrow.NewField("b", arrow.Int64, false), arrow.NewField("bs", arrow.Int64, false))
	filter := &logical.BinaryExpr{Op: logical.OpNeq, L: logical.Col("as"), R: logical.Col("bs")}
	on := []logical.EquiPair{{L: logical.Col("a"), R: logical.Col("b")}}
	for _, jt := range []logical.JoinType{logical.LeftSemiJoin, logical.LeftAntiJoin} {
		in := logical.NewJoin(scanOf("big", big), scanOf("small", small), jt, on, filter)
		out := optimize(t, in)
		j, ok := out.(*logical.Join)
		want := logical.RightSemiJoin
		if jt == logical.LeftAntiJoin {
			want = logical.RightAntiJoin
		}
		if !ok || j.Type != want || scanName(j.Left) != "small" || j.Filter == nil {
			t.Fatalf("%s: not swapped onto the smaller side:\n%s", jt, explain(out))
		}
		if out.Schema().String() != in.Schema().String() {
			t.Fatalf("%s: schema %s, want %s", jt, out.Schema(), in.Schema())
		}
	}
	stream := catalog.NewStreamTable(arrow.NewSchema(arrow.NewField("b", arrow.Int64, false)))
	in := logical.NewJoin(scanOf("big", big), scanOf("s", stream), logical.LeftSemiJoin, on, nil)
	if j, ok := optimize(t, in).(*logical.Join); !ok || j.Type != logical.LeftSemiJoin {
		t.Fatalf("semi join over an unbounded input was swapped")
	}
}

// TestDisjunctionLendsEachSideAPredicate is q7's shape: a disjunction over
// both inputs of an inner join stays the join filter, and each input gets
// the OR of its own conjuncts. In q19's shape the larger input, the probe
// side, gets none.
func TestDisjunctionLendsEachSideAPredicate(t *testing.T) {
	n1 := table(t, 25, arrow.NewField("k", arrow.Int64, false), arrow.NewField("name", arrow.String, false))
	n2 := table(t, 25, arrow.NewField("k", arrow.Int64, false), arrow.NewField("name", arrow.String, false))
	branch := func(a, b string) logical.Expr {
		return logical.And(logical.Eq(logical.Col("n1.name"), logical.Lit(a)), logical.Eq(logical.Col("n2.name"), logical.Lit(b)))
	}
	or := &logical.BinaryExpr{Op: logical.OpOr, L: branch("FRANCE", "GERMANY"), R: branch("GERMANY", "FRANCE")}
	out := optimize(t, fromList(t, or, scanOf("n1", n1), scanOf("n2", n2)))
	text := explain(out)
	for _, want := range []string{
		`filters=[n1.name = "FRANCE" OR n1.name = "GERMANY"]`,
		`filters=[n2.name = "GERMANY" OR n2.name = "FRANCE"]`,
		"filter=n1.name",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q:\n%s", want, text)
		}
	}
	big := table(t, 1000, arrow.NewField("k", arrow.Int64, false), arrow.NewField("name", arrow.String, false))
	text3 := explain(optimize(t, fromList(t, or, scanOf("n1", big), scanOf("n2", n2))))
	if strings.Contains(text3, "filters=[n1.") || !strings.Contains(text3, "filters=[n2.") {
		t.Fatalf("want a derived predicate on the smaller input only:\n%s", text3)
	}
	// A branch with nothing on n2 derives nothing for n2.
	or2 := &logical.BinaryExpr{Op: logical.OpOr, L: branch("FRANCE", "GERMANY"),
		R: logical.Eq(logical.Col("n1.k"), logical.Col("n2.k"))}
	text2 := explain(optimize(t, fromList(t, or2, scanOf("n1", n1), scanOf("n2", n2))))
	if strings.Contains(text2, "filters=") {
		t.Fatalf("derived a side predicate from a branch without one:\n%s", text2)
	}
}
