// A sum or count over `e ± c` or `c × e` (c an integer literal) plans as one
// shared sum(e) and count(e) per (e, FILTER) under a projection that
// rebuilds each written output. These tests compare the reduced plans with
// the baseline engine, which runs every call as written, and pin which
// shapes the planner reduces.
package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// linearSchema has one column per integer type the reduction takes (i8 to
// i64, u32), a NULL-heavy h, big (values within 1 000 of MaxInt64), and
// the types it leaves alone: f, dec and u64.
var linearSchema = arrow.NewSchema(
	arrow.NewField("g", arrow.Int64, true),
	arrow.NewField("i8", arrow.Int8, true), arrow.NewField("i16", arrow.Int16, true),
	arrow.NewField("i32", arrow.Int32, true), arrow.NewField("i64", arrow.Int64, true),
	arrow.NewField("u32", arrow.Uint32, true), arrow.NewField("h", arrow.Int64, true),
	arrow.NewField("big", arrow.Int64, true), arrow.NewField("f", arrow.Float64, true),
	arrow.NewField("dec", arrow.Decimal(18, 2), true), arrow.NewField("u64", arrow.Uint64, true))

// linearRows builds n rows in 60 groups (g 0..59) and a NULL group. In
// group 59 every integer column is NULL; elsewhere one value in ten is,
// and nine in ten of h.
func linearRows(rng *rand.Rand, n int) *arrow.RecordBatch {
	g := arrow.NewNumericBuilder[int64](arrow.Int64)
	i8 := arrow.NewNumericBuilder[int8](arrow.Int8)
	i16 := arrow.NewNumericBuilder[int16](arrow.Int16)
	i32 := arrow.NewNumericBuilder[int32](arrow.Int32)
	i64 := arrow.NewNumericBuilder[int64](arrow.Int64)
	u32 := arrow.NewNumericBuilder[uint32](arrow.Uint32)
	h := arrow.NewNumericBuilder[int64](arrow.Int64)
	big := arrow.NewNumericBuilder[int64](arrow.Int64)
	f := arrow.NewNumericBuilder[float64](arrow.Float64)
	dec := arrow.NewNumericBuilder[int64](arrow.Decimal(18, 2))
	u64 := arrow.NewNumericBuilder[uint64](arrow.Uint64)
	for i := 0; i < n; i++ {
		key := int64(rng.Intn(60))
		if rng.Intn(50) == 0 {
			g.AppendNull()
		} else {
			g.Append(key)
		}
		null := func(oneIn int) bool { return key == 59 || rng.Intn(oneIn) == 0 }
		appendInt := func(b interface {
			AppendNull()
		}, oneIn int, add func()) {
			if null(oneIn) {
				b.AppendNull()
			} else {
				add()
			}
		}
		appendInt(i8, 10, func() { i8.Append(int8(rng.Intn(256) - 128)) })
		appendInt(i16, 10, func() { i16.Append(int16(rng.Intn(65536) - 32768)) })
		appendInt(i32, 10, func() { i32.Append(rng.Int31() - 1<<30) })
		appendInt(i64, 10, func() { i64.Append(rng.Int63() - 1<<62) })
		appendInt(u32, 10, func() { u32.Append(rng.Uint32()) })
		appendInt(h, 10, func() {
			if rng.Intn(9) == 0 {
				h.Append(int64(rng.Intn(1000)))
			} else {
				h.AppendNull()
			}
		})
		appendInt(big, 10, func() { big.Append(math.MaxInt64 - int64(rng.Intn(1000))) })
		f.Append(float64(rng.Intn(4000)) / 4)
		dec.Append(int64(rng.Intn(100000)))
		u64.Append(rng.Uint64())
	}
	return arrow.NewRecordBatch(linearSchema, []arrow.Array{g.Finish(), i8.Finish(), i16.Finish(), i32.Finish(),
		i64.Finish(), u32.Finish(), h.Finish(), big.Finish(), f.Finish(), dec.Finish(), u64.Finish()})
}

var cseName = regexp.MustCompile(`__cse_[0-9]+`)

// finalAggNames lists the aggregates of each Final or Single
// HashAggregateExec in p, and counts the partial ones.
func finalAggNames(p physical.ExecutionPlan) (finals [][]string, partials int) {
	if a, ok := p.(*exec.HashAggregateExec); ok {
		if a.Mode == exec.PartialAgg {
			partials++
		} else {
			names := make([]string, len(a.Aggs))
			for i, s := range a.Aggs {
				names[i] = s.Name
			}
			finals = append(finals, names)
		}
	}
	for _, c := range p.Children() {
		f, n := finalAggNames(c)
		finals, partials = append(finals, f...), partials+n
	}
	return finals, partials
}

// linearQuery is a differential statement and the aggregates its one
// aggregation computes (a __cse_N column renders as __cse).
type linearQuery struct {
	sql  string
	want []string
}

func linearQueries() []linearQuery {
	type q = linearQuery
	var out []q
	for _, e := range []string{"i8", "i16", "i32", "i64", "u32", "h", "big"} {
		shapes := fmt.Sprintf("sum(%[1]s + 7), sum(7 + %[1]s), sum(%[1]s - 3), sum(3 - %[1]s), sum(%[1]s * 5), "+
			"sum(-4 * %[1]s), count(%[1]s + 1), count(2 * %[1]s), sum(%[1]s)", e)
		// The repeated FILTER predicate becomes one common subexpression
		// column, so the two calls under it share their base aggregates.
		filtered := fmt.Sprintf("sum(%[1]s + 7) FILTER (WHERE g %% 2 = 0), count(%[1]s - 1) FILTER (WHERE g %% 2 = 0), "+
			"sum(5 - %[1]s) FILTER (WHERE g %% 2 = 0), sum(%[1]s * 3) FILTER (WHERE g > 20), sum(%[1]s * -2) FILTER (WHERE g > 20), "+
			"sum(%[1]s - 7), sum(2 * %[1]s), count(%[1]s + 2)", e)
		base := []string{fmt.Sprintf("sum(%s)", e), fmt.Sprintf("count(%s)", e)}
		cse := " FILTER (WHERE __cse)"
		filteredBase := []string{base[0] + cse, base[1] + cse, base[0] + cse, base[0], base[1]}
		out = append(out,
			q{"SELECT " + shapes + " FROM t", base},
			q{"SELECT g, " + shapes + " FROM t GROUP BY g", base},
			q{"SELECT " + filtered + " FROM t", filteredBase},
			q{"SELECT g, " + filtered + " FROM t GROUP BY g", filteredBase},
			q{"SELECT g, " + shapes + " FROM empty GROUP BY g", base},
			q{"SELECT " + shapes + " FROM empty", base})
	}
	return append(out,
		// Int64 wrap-around: big is within 1 000 of MaxInt64.
		q{"SELECT g, sum(big + 9223372036854775807), sum(big * 1000003), sum(-9 - big), count(big - 1) FROM t GROUP BY g",
			[]string{"sum(big)", "count(big)"}},
		q{"SELECT sum(i64 * 9223372036854775807), sum(9223372036854775807 - i64), sum(i64 + 9223372036854775807), " +
			"count(i64 - 1), sum(u32 * 4294967295), sum(u32 * 3) FROM t",
			[]string{"sum(i64)", "count(i64)", "sum(u32)"}},
		// HAVING and ORDER BY over reduced outputs.
		q{"SELECT g, sum(i32 + 10) AS s, count(i32 - 1) AS c, sum(i32 - 10) AS d FROM t GROUP BY g " +
			"HAVING sum(i32 + 10) > 0 ORDER BY s DESC, g LIMIT 7",
			[]string{"sum(i32)", "count(i32)"}},
		q{"SELECT g, sum(3 - i16) AS s, sum(i16 * 2) AS d FROM t GROUP BY g HAVING count(i16 + 1) > 40 ORDER BY s, g",
			[]string{"sum(i16)", "count(i16)"}},
		// Reduced calls beside calls the reduction leaves alone.
		q{"SELECT g, sum(i16 + 1), avg(i16), min(i16 + 2), max(i32 * 2), sum(f + 1), count(DISTINCT i8), sum(dec + 1), " +
			"count(*), sum(i16), avg(i16 + 3), sum(i16 - 1), count(i16 * 3) FROM t GROUP BY g",
			[]string{"sum(i16)", "count(i16)", "avg(i16)", "min(i16 + 2)", "max(i32 * 2)", "sum(f + 1)",
				"count(DISTINCT i8)", "sum(dec + 1)", "count(*)", "avg(i16 + 3)"}},
		// A reduction that would not leave fewer aggregates is not made.
		q{"SELECT g, sum(i64 + 1) FILTER (WHERE g > 3) FROM t GROUP BY g", []string{"sum(i64 + 1) FILTER (WHERE g > 3)"}},
		q{"SELECT sum(i32 - 2), sum(i32) FROM t", []string{"sum(i32 - 2)", "sum(i32)"}},
		// An argument written twice is computed once below the aggregation
		// (common subexpression elimination), and the calls read it as a
		// column: they aggregate as written.
		q{"SELECT sum(i32 + 1), avg(i32 + 1) FROM t", []string{"sum(i32 + 1)", "avg(i32 + 1)"}},
	)
}

// TestLinearAggsAgainstBaseline runs every reducible shape, grouped and
// not, with and without FILTER, at one and four partitions and under a
// pool small enough to spill, and compares each result with the baseline
// engine's.
func TestLinearAggsAgainstBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var batches []*arrow.RecordBatch
	for i := 0; i < 6; i++ {
		batches = append(batches, diffSlices(rng, linearRows(rng, 500+rng.Intn(500)), 300)...)
	}
	be := baseline.New(2)
	be.RegisterBatches("t", linearSchema, batches)
	be.RegisterBatches("empty", linearSchema, nil)
	type config struct {
		parts int
		spill bool
	}
	for _, cfg := range []config{{1, false}, {4, false}, {4, true}} {
		layout := make([][]*arrow.RecordBatch, cfg.parts)
		for i, b := range batches {
			layout[i%cfg.parts] = append(layout[i%cfg.parts], b)
		}
		mt, err := catalog.NewMemTable(linearSchema, layout)
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]catalog.TableProvider{"t": mt, "empty": emptyTable(t, linearSchema)}
		spilled := false
		for _, q := range linearQueries() {
			name := fmt.Sprintf("%s at p%d (spill %t)", q.sql, cfg.parts, cfg.spill)
			want, err := be.Query(q.sql)
			if err != nil {
				t.Fatalf("%s: baseline: %v", name, err)
			}
			pp := lowerSQL(t, q.sql, tables, cfg.parts)
			finals, _ := finalAggNames(pp)
			for _, f := range finals {
				for i, agg := range f {
					f[i] = cseName.ReplaceAllString(agg, "__cse")
				}
			}
			if len(finals) != 1 || !slices.Equal(finals[0], q.want) {
				t.Errorf("%s: aggregates %q, want %q\n%s", name, finals, q.want, exec.ExplainPhysical(pp))
			}
			ctx := physical.NewExecContext()
			var pool *memory.GreedyPool
			var dir string
			if cfg.spill {
				dir = t.TempDir()
				pool = memory.NewGreedyPool(2048)
				ctx.Pool, ctx.Disk = pool, memory.NewDiskManager(dir)
			}
			got, err := exec.CollectBatch(ctx, pp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if diff := testutil.Diff(testutil.NormalizeBatch(got), testutil.NormalizeBatch(want)); diff != "" {
				t.Errorf("%s: disagrees with baseline:\n%s", name, diff)
			}
			if strings.Contains(q.sql, "ORDER BY") {
				if diff := testutil.DiffOrdered(got, want); diff != "" {
					t.Errorf("%s: order disagrees with baseline:\n%s", name, diff)
				}
			}
			if err := exec.CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if !cfg.spill {
				continue
			}
			if spills, _ := exec.PlanSpillStats(pp); spills > 0 {
				spilled = true
			}
			if held := pool.Reserved(); held != 0 {
				t.Errorf("%s: %d bytes still reserved", name, held)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Errorf("%s: %d spill files left (%v)", name, len(ents), err)
			}
			if err := ctx.Disk.Close(); err != nil {
				t.Error(err)
			}
		}
		if cfg.spill && !spilled {
			t.Errorf("p%d: no statement spilled under a 2 KiB pool", cfg.parts)
		}
	}
}

// TestLinearAggsPlanAsWritten pins the calls the reduction leaves alone,
// and a lone linear call, which it would only split in two: each keeps its
// written aggregate and no projection is added over it. The statements it
// reduces keep the unreduced plan's output schema.
func TestLinearAggsPlanAsWritten(t *testing.T) {
	tables := map[string]catalog.TableProvider{"t": emptyTable(t, linearSchema)}
	for _, call := range []string{
		"sum(f + 1)", "sum(dec + 1)", "sum(u64 + 1)", "count(u64 * 2)", "sum(i32 + NULL)", "sum(i32 + i16)",
		"sum(i32 + i32)", "count(DISTINCT i32 + 1)", "sum(i64 / 2)", "sum(i64 % 3)", "avg(i64 + 1)",
		"min(i64 + 1)", "max(2 * i64)", "sum(i64 + 1)", "count(3 * i8)",
	} {
		for _, parts := range []int{1, 2} {
			for _, sqlText := range []string{
				"SELECT " + call + " FROM t",
				"SELECT g, " + call + " FROM t GROUP BY g",
			} {
				pp := lowerSQL(t, sqlText, tables, parts)
				// A lone count(DISTINCT) plans as a de-duplicating group-by
				// under its counting one.
				finals, _ := finalAggNames(pp)
				finals = slices.DeleteFunc(finals, func(f []string) bool { return len(f) == 0 })
				if len(finals) != 1 || len(finals[0]) != 1 || finals[0][0] != call {
					t.Errorf("%s at p%d: aggregates %q, want [%s]", sqlText, parts, finals, call)
				}
				if n := strings.Count(exec.ExplainPhysical(pp), "ProjectionExec"); n != 1 {
					t.Errorf("%s at p%d: %d projections, want the statement's one\n%s", sqlText, parts, n, exec.ExplainPhysical(pp))
				}
			}
		}
	}

	// A reduced aggregation presents the schema the unreduced one would.
	for _, parts := range []int{1, 2} {
		for _, sqlText := range []string{
			"SELECT g, sum(i16 + 1), count(i16 - 2), sum(3 * i16), max(i16), sum(5 - i16) FROM t GROUP BY g",
			"SELECT sum(u32 + 1), sum(u32), count(u32 * 4) FROM t",
		} {
			pp := lowerSQL(t, sqlText, tables, parts)
			reduced, ok := statementInput(pp).(*exec.ProjectionExec)
			if !ok {
				t.Fatalf("%s at p%d: no projection under the statement's own\n%s", sqlText, parts, exec.ExplainPhysical(pp))
			}
			got, want := reduced.Schema(), unreducedSchema(t, optimizeSQL(t, sqlText, tables))
			if got.NumFields() != want.NumFields() {
				t.Fatalf("%s at p%d: %d fields, want %d", sqlText, parts, got.NumFields(), want.NumFields())
			}
			for i, f := range got.Fields() {
				w := want.Field(i)
				if f.Name != w.Name || !f.Type.Equal(w.Type) || f.Nullable != w.Nullable {
					t.Errorf("%s at p%d: field %d is %s %s nullable=%t, want %s %s nullable=%t",
						sqlText, parts, i, f.Name, f.Type, f.Nullable, w.Name, w.Type, w.Nullable)
				}
			}
		}
	}
}

// statementInput returns the input of the plan's top projection (the
// statement's SELECT list).
func statementInput(p physical.ExecutionPlan) physical.ExecutionPlan {
	for {
		switch n := p.(type) {
		case *exec.PipelineExec:
			p = n.Children()[0]
		case *exec.ProjectionExec:
			return n.Input
		default:
			return nil
		}
	}
}

// unreducedSchema is the output schema of the plan's aggregation planned as
// written: a HashAggregateExec computing every call of the Aggregate node.
func unreducedSchema(t *testing.T, plan logical.Plan) *arrow.Schema {
	t.Helper()
	for {
		if _, ok := plan.(*logical.Aggregate); ok || len(plan.Children()) == 0 {
			break
		}
		plan = plan.Children()[0]
	}
	node, ok := plan.(*logical.Aggregate)
	if !ok {
		t.Fatal("no Aggregate node")
	}
	comp := physical.NewCompiler(node.Input.Schema(), diffReg)
	compile := func(e logical.Expr) physical.PhysicalExpr {
		pe, err := comp.Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		return pe
	}
	groups := make([]physical.PhysicalExpr, len(node.GroupExprs))
	names := make([]string, len(node.GroupExprs))
	for i, g := range node.GroupExprs {
		groups[i], names[i] = compile(g), node.Schema().Field(i).Name
	}
	specs := make([]exec.AggSpec, len(node.AggExprs))
	for i, e := range node.AggExprs {
		call := e.(*logical.AggFunc)
		fn, _ := diffReg.Agg(call.Name)
		args := make([]physical.PhysicalExpr, len(call.Args))
		for j, a := range call.Args {
			args[j] = compile(a)
		}
		spec, err := exec.NewAggSpec(fn, node.Schema().Field(len(groups)+i).Name, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	return exec.NewHashAggregateExec(nil, exec.FinalAgg, groups, names, specs).Schema()
}
