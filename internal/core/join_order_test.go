package core

import (
	"context"
	"io"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/testutil"
)

// intTable is a table of nullable int64 columns; nil cells are NULL.
type intTable struct {
	name string
	cols []string
	rows [][]*int64
}

func iv(v int64) *int64 { return &v }

// register adds the table to the session, dealt round-robin over four
// MemTable partitions, and to TightDB.
func (tb intTable) register(t *testing.T, s *SessionContext, be *baseline.Engine) {
	t.Helper()
	fields := make([]arrow.Field, len(tb.cols))
	for i, c := range tb.cols {
		fields[i] = arrow.NewField(c, arrow.Int64, true)
	}
	schema := arrow.NewSchema(fields...)
	const parts = 4
	var all []*arrow.RecordBatch
	partitions := make([][]*arrow.RecordBatch, parts)
	for p := 0; p < parts; p++ {
		cols := make([]arrow.Array, len(tb.cols))
		n := 0
		for c := range tb.cols {
			b := arrow.NewNumericBuilder[int64](arrow.Int64)
			n = 0
			for r := p; r < len(tb.rows); r += parts {
				if v := tb.rows[r][c]; v != nil {
					b.Append(*v)
				} else {
					b.AppendNull()
				}
				n++
			}
			cols[c] = b.Finish()
		}
		batch := arrow.NewRecordBatchWithRows(schema, cols, n)
		partitions[p] = []*arrow.RecordBatch{batch}
		all = append(all, batch)
	}
	mt, err := catalog.NewMemTable(schema, partitions)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterTable(tb.name, mt)
	be.RegisterBatches(tb.name, schema, all)
}

func collect(t *testing.T, s *SessionContext, query string) *arrow.RecordBatch {
	t.Helper()
	df, err := s.SQL(query)
	if err != nil {
		t.Fatalf("planning %q: %v", query, err)
	}
	b, err := df.CollectBatch()
	if err != nil {
		t.Fatalf("executing %q: %v", query, err)
	}
	return b
}

// TestNotInSubqueryNulls checks x NOT IN (subquery) against the same
// predicate over literal lists, which the InList kernel evaluates on its
// own path, on the engine and on TightDB, which shares the decorrelation:
// a NULL in the subquery's rows leaves no row but those whose subquery is
// empty, and a NULL x survives only an empty subquery.
func TestNotInSubqueryNulls(t *testing.T) {
	tt := intTable{name: "t", cols: []string{"k", "a"}, rows: [][]*int64{
		{iv(1), iv(1)}, {iv(1), iv(2)}, {iv(2), iv(1)}, {iv(2), nil}, {iv(3), iv(5)}, {nil, iv(1)}, {iv(4), nil},
	}}
	u := intTable{name: "u", cols: []string{"j", "b"}, rows: [][]*int64{
		{iv(1), iv(1)}, {iv(2), iv(7)}, {iv(2), nil}, {iv(4), iv(9)},
	}}
	cases := []struct{ subquery, list string }{
		// Uncorrelated: u.b holds 1, 7, 9 and a NULL.
		{"a NOT IN (SELECT b FROM u)", "a NOT IN (1, 7, NULL, 9)"},
		{"a NOT IN (SELECT b FROM u WHERE b IS NOT NULL)", "a NOT IN (1, 7, 9)"},
		{"a NOT IN (SELECT b FROM u WHERE j = 2)", "a NOT IN (7, NULL)"},
		{"a NOT IN (SELECT b FROM u WHERE b > 100)", "a IS NULL OR a IS NOT NULL"},
		// Correlated on k = j: per k the lists are {1}, {7, NULL}, {9}.
		{"a NOT IN (SELECT b FROM u WHERE u.j = t.k)",
			"(k = 1 AND a NOT IN (1)) OR (k = 2 AND a NOT IN (7, NULL)) OR (k = 4 AND a NOT IN (9)) OR k IS NULL OR k NOT IN (1, 2, 4)"},
		{"a NOT IN (SELECT b FROM u WHERE u.j = t.k AND b IS NOT NULL)",
			"(k = 1 AND a NOT IN (1)) OR (k = 2 AND a NOT IN (7)) OR (k = 4 AND a NOT IN (9)) OR k IS NULL OR k NOT IN (1, 2, 4)"},
		{"a IN (SELECT b FROM u WHERE u.j = t.k)", "(k = 1 AND a IN (1)) OR (k = 2 AND a IN (7, NULL)) OR (k = 4 AND a IN (9))"},
	}
	for _, parts := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.TargetPartitions = parts
		s := NewSession(cfg)
		be := baseline.New(parts)
		tt.register(t, s, be)
		u.register(t, s, be)
		for _, c := range cases {
			sub := collect(t, s, "SELECT k, a FROM t WHERE "+c.subquery)
			list := collect(t, s, "SELECT k, a FROM t WHERE "+c.list)
			if diff := testutil.DiffBatches(sub, list); diff != "" {
				t.Errorf("p%d: %s disagrees with %s:\n%s", parts, c.subquery, c.list, diff)
			}
			oracle, err := be.Query("SELECT k, a FROM t WHERE " + c.subquery)
			if err != nil {
				t.Fatal(err)
			}
			if diff := testutil.DiffBatches(oracle, list); diff != "" {
				t.Errorf("p%d: TightDB's %s disagrees with %s:\n%s", parts, c.subquery, c.list, diff)
			}
		}
		got := q(t, s, "SELECT count(*) FROM (VALUES (1),(2)) t(a) WHERE a NOT IN (SELECT b FROM (VALUES (1),(NULL)) u(b))")
		expect(t, got, []string{"0"}, true)
	}
}

// TestSemiAntiSwapMatchesBaseline is q21's shape over a probe side much
// larger than either subquery: both the EXISTS and the NOT EXISTS join,
// each with a residual <> filter over nullable columns, build on the
// subquery side, and return TightDB's rows (TightDB keeps them as left
// semi and anti joins).
func TestSemiAntiSwapMatchesBaseline(t *testing.T) {
	var big, small [][]*int64
	for i := int64(0); i < 2000; i++ {
		s := iv(i * 7 % 13)
		if i%17 == 0 {
			s = nil
		}
		big = append(big, []*int64{iv(i % 300), s})
	}
	for i := int64(0); i < 200; i++ {
		s := iv(i * 5 % 11)
		if i%23 == 0 {
			s = nil
		}
		small = append(small, []*int64{iv(i % 250), s, iv(i % 3)})
	}
	l1 := intTable{name: "l1", cols: []string{"k", "s"}, rows: big}
	l2 := intTable{name: "l2", cols: []string{"k", "s", "late"}, rows: small}
	query := `SELECT l1.k, l1.s FROM l1
WHERE EXISTS (SELECT * FROM l2 WHERE l2.k = l1.k AND l2.s <> l1.s)
  AND NOT EXISTS (SELECT * FROM l2 l3 WHERE l3.k = l1.k AND l3.s <> l1.s AND l3.late = 0)`
	for _, parts := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.TargetPartitions = parts
		s := NewSession(cfg)
		be := baseline.New(parts)
		l1.register(t, s, be)
		l2.register(t, s, be)
		df, err := s.SQL(query)
		if err != nil {
			t.Fatal(err)
		}
		batches, qm, err := df.CollectWithMetrics()
		if err != nil {
			t.Fatal(err)
		}
		plan := exec.ExplainPhysical(qm.Plan)
		for _, want := range []string{"type=RightSemi", "type=RightAnti"} {
			if !strings.Contains(plan, want) {
				t.Fatalf("p%d: no %s join:\n%s", parts, want, plan)
			}
		}
		var rows int64
		for _, b := range batches {
			rows += int64(b.NumRows())
		}
		if err := exec.CheckPlanMetrics(qm.Plan, rows); err != nil {
			t.Errorf("p%d: %v", parts, err)
		}
		got := collect(t, s, query)
		want, err := be.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() == 0 {
			t.Fatalf("p%d: the query selects no rows; the data does not exercise the joins", parts)
		}
		if diff := testutil.DiffBatches(got, want); diff != "" {
			t.Fatalf("p%d: engine and TightDB disagree:\n%s", parts, diff)
		}
	}
}

// TestJoinOrderKeepsStreamOnProbeSide: a live stream last in FROM order is
// the probe side of the FROM-order plan. Join ordering must not move it onto
// a build side, where the plan is refused (an unbounded nested-loop build) or
// turns into a symmetric join buffering both sides. Each query plans,
// streams its matches and ends when the stream is sealed.
func TestJoinOrderKeepsStreamOnProbeSide(t *testing.T) {
	cases := []struct {
		query     string
		rows      int
		symmetric bool
	}{
		// x is linked to nothing: (x × live) ⋈ b, as in FROM order.
		{"SELECT x.v, live.a FROM x, live, b WHERE live.a = b.bk", 4, true},
		// d1 × d2 builds the hash join that live probes.
		{"SELECT live.a FROM d1, d2, live WHERE d1.d1k = live.a AND d2.d2k = live.a", 2, false},
	}
	for _, c := range cases {
		s := NewSession(SessionConfig{TargetPartitions: 2})
		for name, vals := range map[string][]int64{"x": {1, 2}, "b": {2, 3}, "d1": {1, 2, 3}, "d2": {2, 3, 4}} {
			col := map[string]string{"x": "v", "b": "bk", "d1": "d1k", "d2": "d2k"}[name]
			sch := arrow.NewSchema(arrow.NewField(col, arrow.Int64, false))
			if err := s.RegisterBatches(name, sch, []*arrow.RecordBatch{int64Batch(sch, vals)}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.RegisterStream("live", streamSchema(), "")
		if err != nil {
			t.Fatal(err)
		}
		df, err := s.SQL(c.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := df.Explain()
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if strings.Contains(plan, "Symmetric") != c.symmetric {
			t.Fatalf("%s: symmetric join = %v, want %v:\n%s", c.query, !c.symmetric, c.symmetric, plan)
		}
		qs, err := df.Execute(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if err := st.Append(int64Batch(streamSchema(), []int64{1, 2, 3}, []int64{1, 2, 3})); err != nil {
			t.Fatal(err)
		}
		st.Seal()
		rows := 0
		for {
			b, err := qs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", c.query, err)
			}
			rows += b.NumRows()
		}
		qs.Close()
		s.Close()
		if rows != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.query, rows, c.rows)
		}
	}
}
