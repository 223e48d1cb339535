package baseline

import (
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/core"
	"gofusion/internal/logical"
	"gofusion/internal/testutil"
	"gofusion/internal/workload/clickbench"
	"gofusion/internal/workload/h2o"
	"gofusion/internal/workload/tpch"
)

func TestBaselineBasics(t *testing.T) {
	e := New(2)
	schema := arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
		arrow.NewField("v", arrow.Float64, false),
	)
	kb := arrow.NewNumericBuilder[int64](arrow.Int64)
	vb := arrow.NewNumericBuilder[float64](arrow.Float64)
	for i := 0; i < 1000; i++ {
		kb.Append(int64(i % 7))
		vb.Append(float64(i))
	}
	e.RegisterBatches("t", schema, []*arrow.RecordBatch{
		arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()}),
	})
	b, err := e.Query("SELECT k, count(*) AS c, sum(v) FROM t GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 7 {
		t.Fatalf("rows = %d", b.NumRows())
	}
	var total int64
	cs := b.ColumnByName("c").(*arrow.Int64Array)
	for i := 0; i < 7; i++ {
		total += cs.Value(i)
	}
	if total != 1000 {
		t.Fatalf("counts sum to %d", total)
	}
}

// TestTPCHEnginesAgree runs all 22 TPC-H queries on both engines and
// compares results (the differential test underlying Figure 5).
func TestTPCHEnginesAgree(t *testing.T) {
	const sf = 0.01
	s := core.NewSession(core.DefaultConfig())
	if err := tpch.RegisterInMemory(s, sf); err != nil {
		t.Fatal(err)
	}
	e := New(2)
	g := tpch.NewGenerator(sf)
	for _, name := range tpch.TableNames {
		schema, batches, err := g.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterBatches(name, schema, batches)
	}
	for n := 1; n <= 22; n++ {
		q, _ := tpch.Query(n)
		df, err := s.SQL(q)
		if err != nil {
			t.Fatalf("Q%d gofusion plan: %v", n, err)
		}
		want, err := df.CollectBatch()
		if err != nil {
			t.Fatalf("Q%d gofusion exec: %v", n, err)
		}
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("Q%d baseline: %v", n, err)
		}
		if diff := testutil.DiffBatches(got, want); diff != "" {
			t.Fatalf("Q%d: engines disagree:\n%s", n, diff)
		}
	}
}

// TestClickBenchEnginesAgree compares both engines on the paper's
// ClickBench query subset.
func TestClickBenchEnginesAgree(t *testing.T) {
	const rowsN = 10000
	s := core.NewSession(core.DefaultConfig())
	if err := clickbench.RegisterInMemory(s, rowsN); err != nil {
		t.Fatal(err)
	}
	e := New(2)
	g := clickbench.NewGenerator(rowsN)
	schema, batches := g.Generate()
	e.RegisterBatches("hits", schema, batches)

	queries := clickbench.Queries()
	for _, n := range clickbench.PaperQueryNumbers() {
		q := queries[n]
		df, err := s.SQL(q)
		if err != nil {
			t.Fatalf("Q%d gofusion plan: %v", n, err)
		}
		want, err := df.CollectBatch()
		if err != nil {
			t.Fatalf("Q%d gofusion exec: %v", n, err)
		}
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("Q%d baseline: %v", n, err)
		}
		// Top-K queries can tie-break differently; compare row counts and
		// the full set only for deterministic queries (no LIMIT).
		if got.NumRows() != want.NumRows() {
			t.Fatalf("Q%d: %d vs %d rows", n, got.NumRows(), want.NumRows())
		}
		if !hasLimit(q) {
			if diff := testutil.DiffBatches(got, want); diff != "" {
				t.Fatalf("Q%d: engines disagree:\n%s", n, diff)
			}
		}
	}
}

// TestNullOperandArithmetic: arithmetic or negation with a Null-typed
// operand is NULL, whichever side the NULL is on, in the engine at one and
// two partitions and in TightDB alike.
func TestNullOperandArithmetic(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("x", arrow.Int64, true))
	xb := arrow.NewNumericBuilder[int64](arrow.Int64)
	xb.Append(1)
	xb.AppendNull()
	xb.Append(3)
	batches := []*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{xb.Finish()})}
	queries := []string{
		"SELECT NULL + 1",
		"SELECT 1 + NULL",
		"SELECT -NULL FROM t",
		"SELECT sum(NULL + 1) FROM t",
	}
	for _, p := range []int{1, 2} {
		cfg := core.DefaultConfig()
		cfg.TargetPartitions = p
		s := core.NewSession(cfg)
		if err := s.RegisterBatches("t", schema, batches); err != nil {
			t.Fatal(err)
		}
		e := New(p)
		e.RegisterBatches("t", schema, batches)
		for _, q := range queries {
			df, err := s.SQL(q)
			if err != nil {
				t.Fatalf("p=%d %s: plan: %v", p, q, err)
			}
			got, err := df.CollectBatch()
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, q, err)
			}
			want, err := e.Query(q)
			if err != nil {
				t.Fatalf("p=%d %s: baseline: %v", p, q, err)
			}
			if diff := testutil.DiffBatches(got, want); diff != "" {
				t.Fatalf("p=%d %s: engines disagree:\n%s", p, q, diff)
			}
			for c := 0; c < got.NumCols(); c++ {
				if n := got.Column(c).NullCount(); n != got.NumRows() {
					t.Fatalf("p=%d %s: %d of %d rows NULL", p, q, n, got.NumRows())
				}
			}
		}
	}
}

func hasLimit(q string) bool {
	for i := 0; i+5 <= len(q); i++ {
		if q[i] == 'L' && q[i:i+5] == "LIMIT" {
			return true
		}
	}
	return false
}

// TestH2OEnginesAgree compares both engines on the H2O groupby queries.
func TestH2OEnginesAgree(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g1.csv"
	if err := h2o.WriteCSV(path, 20000); err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(core.DefaultConfig())
	if err := h2o.Register(s, path); err != nil {
		t.Fatal(err)
	}
	e := New(2)
	if err := e.RegisterCSV("x", path); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 10; n++ {
		q := h2o.Queries[n]
		df, err := s.SQL(q)
		if err != nil {
			t.Fatalf("q%d gofusion plan: %v", n, err)
		}
		want, err := df.CollectBatch()
		if err != nil {
			t.Fatalf("q%d gofusion exec: %v", n, err)
		}
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("q%d baseline: %v", n, err)
		}
		if diff := testutil.DiffBatches(got, want); diff != "" {
			t.Fatalf("q%d: engines disagree (%d vs %d rows):\n%s", n, got.NumRows(), want.NumRows(), diff)
		}
	}
}

// TestCountDistinctStaysOneAggregate: the main engine's physical planner
// runs a lone count(DISTINCT e) as GROUP BY (keys, e) under GROUP BY keys.
// TightDB is the oracle for those statements, so it must keep executing
// them the other way — one Aggregate node holding the DISTINCT call, fed to
// the count_distinct accumulator — which holds as long as the shared
// logical optimizer does not do that rewrite.
func TestCountDistinctStaysOneAggregate(t *testing.T) {
	e := New(2)
	e.RegisterBatches("hits", clickbench.Schema(), nil)
	for _, name := range []string{"part", "partsupp", "supplier"} {
		schema, err := tpch.Schema(name)
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterBatches(name, schema, nil)
	}
	cb := clickbench.Queries()
	q16, err := tpch.Query(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{cb[5], cb[6], cb[9], cb[11], cb[12], cb[14], q16} {
		plan, err := e.plan(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		distinctCalls := 0
		logical.VisitPlan(plan, func(p logical.Plan) bool {
			switch n := p.(type) {
			case *logical.Distinct:
				t.Errorf("%s: plan de-duplicates in a node of its own:\n%s", query, logical.Explain(plan))
			case *logical.Aggregate:
				if len(n.AggExprs) == 0 {
					t.Errorf("%s: plan has an aggregate-free group-by:\n%s", query, logical.Explain(plan))
				}
				for _, a := range n.AggExprs {
					logical.VisitExpr(a, func(x logical.Expr) bool {
						if f, ok := x.(*logical.AggFunc); ok && f.Distinct {
							distinctCalls++
						}
						return true
					})
				}
			}
			return true
		})
		if distinctCalls != 1 {
			t.Errorf("%s: %d DISTINCT aggregate calls in the optimized plan, want 1", query, distinctCalls)
		}
		if _, err := e.Query(query); err != nil {
			t.Errorf("%s: %v", query, err)
		}
	}
}
