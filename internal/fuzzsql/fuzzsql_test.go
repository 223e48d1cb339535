package fuzzsql

import (
	"strings"
	"testing"
	"time"

	"gofusion/internal/core"
	"gofusion/internal/optimizer"
	"gofusion/internal/testutil"
)

// TestGeneratorDeterministic: the same seed must yield the same query
// stream (repro-ability of any reported failure depends on this).
func TestGeneratorDeterministic(t *testing.T) {
	ds := NewDataset(42)
	g1, g2 := NewGen(42, ds), NewGen(42, ds)
	for i := 0; i < 50; i++ {
		a, b := g1.Query().SQL(), g2.Query().SQL()
		if a != b {
			t.Fatalf("query %d diverged:\n%s\n%s", i, a, b)
		}
	}
}

// TestFixedSeedMatrix is the deterministic harness entry required by the
// acceptance criteria: >=300 random queries across the full config matrix
// and every storage format must agree with the baseline, with zero
// panics.
func TestFixedSeedMatrix(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	rep, err := Run(Options{
		Seed: 1,
		N:    n,
		Dir:  t.TempDir(),
		Log:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("differential failures:\n%s", rep.Summary())
	}
	if rep.Queries < n {
		t.Fatalf("ran %d queries, want >= %d", rep.Queries, n)
	}
	// Every successful query also passed exec.CheckPlanMetrics (wired into
	// Harness.Check). The memory-limited config must additionally have
	// exercised the spill paths somewhere in the run; a zero here means
	// spill instrumentation (or spilling itself) silently broke.
	if rep.SpillCounts["p4-spill"] == 0 {
		t.Fatalf("p4-spill config recorded no operator spills across %d queries", rep.Queries)
	}
	// Windows do not spill: under the same 4 KiB budget the generated
	// window queries must have hit the WindowExec reservation (the harness
	// accepts only that typed error there, see overBudget).
	if rep.WindowBudgetFailures["p4-spill"] == 0 {
		t.Fatalf("p4-spill config recorded no over-budget window across %d queries", rep.Queries)
	}
	// Join builds are charged to the same budget and do not spill either.
	if rep.JoinBudgetFailures["p4-spill"] == 0 {
		t.Fatalf("p4-spill config recorded no over-budget join build across %d queries", rep.Queries)
	}
}

// TestGeneratorCoversWindows: the query stream contains every window
// function and the top-k subquery form.
func TestGeneratorCoversWindows(t *testing.T) {
	ds := NewDataset(1)
	g := NewGen(1, ds)
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		q := g.Query()
		sql := q.SQL()
		for _, fn := range []string{"row_number(", "rank(", "sum(", "lag("} {
			if strings.Contains(sql, fn) && strings.Contains(sql, " OVER (") {
				seen[fn] = true
			}
		}
		if q.TopK {
			seen["topk"] = true
			if !strings.Contains(sql, ") ranked WHERE c") {
				t.Fatalf("top-k query not in subquery form: %s", sql)
			}
		}
	}
	for _, want := range []string{"row_number(", "rank(", "sum(", "lag(", "topk"} {
		if !seen[want] {
			t.Errorf("300 queries of seed 1 never produced %s", want)
		}
	}
}

// TestGeneratorCoversCountDistinct: the seed TestFixedSeedMatrix runs yields
// count(DISTINCT col) both as a query's only aggregate (the nested group-by
// plan) and beside other aggregates (the count_distinct accumulator).
func TestGeneratorCoversCountDistinct(t *testing.T) {
	g := NewGen(1, NewDataset(1))
	alone, beside := 0, 0
	for i := 0; i < 300; i++ {
		q := g.Query()
		aggs, distinct := 0, 0
		for _, it := range q.Items {
			if a, ok := it.(*Agg); ok {
				aggs++
				if a.Distinct {
					distinct++
				}
			}
		}
		switch {
		case distinct == 1 && aggs == 1 && q.Having == nil:
			alone++
		case distinct > 0 && aggs > distinct:
			beside++
		}
	}
	if alone == 0 || beside == 0 {
		t.Errorf("300 queries of seed 1: count(DISTINCT) alone in %d, beside other aggregates in %d", alone, beside)
	}
}

// TestShrinkerReducesInjectedMismatch injects a synthetic failure
// predicate (any query whose SQL contains an avg aggregate "fails") into
// the shrinker and checks that a fully-loaded query reduces to a <=3
// clause repro that still trips the predicate.
func TestShrinkerReducesInjectedMismatch(t *testing.T) {
	full := &Query{
		Distinct: false,
		Items: []Expr{
			&Col{Name: "b", T: TInt},
			&Agg{Fn: "avg", Arg: &Col{Name: "c", T: TFloat}},
			&Agg{Fn: "sum", Arg: &Bin{Op: "*", L: &Col{Name: "a", T: TInt}, R: &Lit{T: TInt, Int: 3}, T: TInt}},
		},
		From: "t1",
		Join: &Join{Left: true, Table: "t2",
			On: &Bin{Op: "=", L: &Col{Name: "a", T: TInt}, R: &Col{Name: "x", T: TInt}, T: TBool}},
		Where: &Bin{Op: ">", L: &Col{Name: "e", T: TInt}, R: &Lit{T: TInt, Int: 40}, T: TBool},
		GroupBy: []Expr{
			&Col{Name: "b", T: TInt},
		},
		Having: &Bin{Op: ">", L: &Agg{Fn: "count", Star: true}, R: &Lit{T: TInt, Int: 0}, T: TBool},
		Order:  true, OrderDesc: []bool{false, true, false},
		Limit: 7,
	}
	if full.NumClauses() != 8 {
		t.Fatalf("test setup: expected a fully-loaded query, got %d clauses", full.NumClauses())
	}
	stillFails := func(q *Query) bool { return strings.Contains(q.SQL(), "avg(") }
	if !stillFails(full) {
		t.Fatal("test setup: predicate must hold on the full query")
	}
	min := Shrink(full, stillFails)
	if !stillFails(min) {
		t.Fatalf("shrunk query no longer fails: %s", min.SQL())
	}
	if got := min.NumClauses(); got > 3 {
		t.Fatalf("shrinker left %d clauses (want <= 3): %s", got, min.SQL())
	}
	t.Logf("shrunk %d -> %d clauses: %s", full.NumClauses(), min.NumClauses(), min.SQL())
}

// TestShrinkerOnRealHarness wires the shrinker to the real differential
// predicate with a query that does NOT fail: Shrink must return quickly
// with the original query intact (no reduction can "fail harder" than
// passing).
func TestShrinkerOnRealHarness(t *testing.T) {
	ds := NewDataset(7)
	h, err := NewHarness(ds, t.TempDir(), []EngineConfig{DefaultConfigs()[0]}, []Format{Mem})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	q := NewGen(7, ds).Query()
	if fail := h.CheckQuery(q); fail != nil {
		t.Fatalf("unexpected failure: %s", fail)
	}
}

// TestReproSource checks the emitted repro embeds the failing query and
// the pinned seed.
func TestReproSource(t *testing.T) {
	f := &Failure{SQL: "SELECT 1 AS c0 FROM t1", Format: GPQ, Config: "p4-spill", Detail: "x"}
	src := ReproSource(99, f)
	for _, want := range []string{"SELECT 1 AS c0 FROM t1", "NewDataset(99)", `"p4-spill"`, `Format("gpq")`} {
		if !strings.Contains(src, want) {
			t.Fatalf("repro source missing %q:\n%s", want, src)
		}
	}
}

// TestRunDuration: a duration-bounded run terminates.
func TestRunDuration(t *testing.T) {
	rep, err := Run(Options{Seed: 3, Duration: 2 * time.Second, N: 40, Dir: t.TempDir(),
		Formats: []Format{Mem}, Configs: DefaultConfigs()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("no queries ran")
	}
}

// TestProjectionPushdownJoinCorpus runs the generator's join queries with
// and without the projection pushdown pass, at one and four partitions:
// results (or errors) must agree. TightDB shares the pass, so the matrix
// cannot check it.
func TestProjectionPushdownJoinCorpus(t *testing.T) {
	ds := NewDataset(1)
	g := NewGen(1, ds)
	var joins []string
	for len(joins) < 120 {
		if q := g.Query(); q.Join != nil {
			joins = append(joins, q.SQL())
		}
	}
	for _, parts := range []int{1, 4} {
		cfg := core.SessionConfig{TargetPartitions: parts}
		on := core.NewSession(cfg)
		off := core.NewSession(cfg).WithoutOptimizerRules((&optimizer.ProjectionPushdown{}).Name())
		for _, s := range []*core.SessionContext{on, off} {
			for _, tb := range ds.Tables {
				if err := registerEngine(s, Mem, tb, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range joins {
			got, want := runEngine(on, q), runEngine(off, q)
			if got.panicked || (got.err == nil) != (want.err == nil) {
				t.Fatalf("p%d: %s\nwith the pass: %v\nwithout: %v", parts, q, got.err, want.err)
			}
			if got.err == nil {
				if diff := testutil.DiffBatches(got.batch, want.batch); diff != "" {
					t.Fatalf("p%d: projection pushdown changes the result of\n%s\n%s", parts, q, diff)
				}
			}
		}
	}
}
