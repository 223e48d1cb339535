package core

import (
	"strings"
	"testing"

	"gofusion/internal/arrow"
)

// TestOptimizerPreservesResults runs a battery of queries with and
// without the logical optimizer and requires identical results — the
// plan-equivalence property behind every rewrite rule.
func TestOptimizerPreservesResults(t *testing.T) {
	queries := []string{
		`SELECT name FROM emp WHERE salary > 100 AND dept_id IS NOT NULL ORDER BY name`,
		`SELECT dept_id, count(*), sum(salary) FROM emp GROUP BY dept_id ORDER BY 1 NULLS LAST`,
		`SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.did ORDER BY 1`,
		`SELECT e.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.did WHERE d.dname = 'eng' ORDER BY 1`,
		`SELECT name FROM emp ORDER BY salary DESC NULLS LAST LIMIT 3`,
		`SELECT CASE WHEN salary > 200 THEN 'hi' ELSE 'lo' END AS b, count(*) FROM emp GROUP BY b ORDER BY b`,
		`SELECT name FROM emp WHERE (salary > 100 AND id < 4) OR (salary > 100 AND id > 4) ORDER BY 1`,
		`SELECT id FROM emp WHERE 1 = 1 AND id BETWEEN 2 AND 4 ORDER BY 1`,
	}
	on := newTestSession(t, 2)
	offCfg := DefaultConfig()
	offCfg.TargetPartitions = 2
	offCfg.DisableOptimizer = true
	off := on.WithConfig(offCfg)
	for _, query := range queries {
		want := q(t, on, query)
		got := q(t, off, query)
		if strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("optimizer changed results for %q:\nopt:   %v\nnoopt: %v", query, want, got)
		}
	}
}

// TestSQLWithMemoryLimitSpills runs a sort+aggregate under a tight memory
// budget and verifies results match the unconstrained run.
func TestSQLWithMemoryLimitSpills(t *testing.T) {
	mk := func(limit int64) *SessionContext {
		cfg := DefaultConfig()
		cfg.MemoryLimit = limit
		cfg.SpillDir = t.TempDir()
		s := NewSession(cfg)
		// A table big enough to exceed the limit.
		schema := arrow.NewSchema(
			arrow.NewField("k", arrow.Int64, false),
			arrow.NewField("v", arrow.Int64, false),
		)
		kb := arrow.NewNumericBuilder[int64](arrow.Int64)
		vb := arrow.NewNumericBuilder[int64](arrow.Int64)
		for i := 0; i < 50000; i++ {
			kb.Append(int64(i % 1000))
			vb.Append(int64(i))
		}
		if err := s.RegisterBatches("big", schema, []*arrow.RecordBatch{
			arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()}),
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	query := `SELECT k, sum(v) AS s FROM big GROUP BY k ORDER BY s DESC LIMIT 5`
	want := q(t, mk(0), query)      // unlimited
	got := q(t, mk(64*1024), query) // 64 KiB forces sort/agg spills
	if strings.Join(want, ";") != strings.Join(got, ";") {
		t.Fatalf("spilled results differ:\nwant %v\ngot  %v", want, got)
	}
	// Full sort (not Top-K) under pressure too.
	query2 := `SELECT k FROM big ORDER BY v`
	want2 := q(t, mk(0), query2)
	got2 := q(t, mk(128*1024), query2)
	if len(want2) != len(got2) || want2[0] != got2[0] || want2[len(want2)-1] != got2[len(got2)-1] {
		t.Fatal("spilled sort differs")
	}
}

func TestGroupingSetsFullShape(t *testing.T) {
	s := newTestSession(t, 1)
	got := q(t, s, `SELECT dept_id, name, count(*) FROM emp WHERE dept_id IS NOT NULL
		GROUP BY GROUPING SETS ((dept_id), (name), ()) ORDER BY 1 NULLS LAST, 2 NULLS LAST`)
	// 3 dept rows + 5 name rows + 1 grand total.
	if len(got) != 9 {
		t.Fatalf("grouping sets rows = %d: %v", len(got), got)
	}
	last := got[len(got)-1]
	if !strings.HasPrefix(last, "NULL|NULL|5") {
		t.Fatalf("grand total wrong: %v", got)
	}
}

func TestRegexpThroughSQL(t *testing.T) {
	s := newTestSession(t, 1)
	expect(t, q(t, s, `SELECT name FROM emp WHERE regexp_like(name, '^[ab]') ORDER BY 1`),
		[]string{`"ann"`, `"bob"`}, true)
	expect(t, q(t, s, `SELECT regexp_replace(name, 'n+', 'N') FROM emp WHERE id = 1`),
		[]string{`"aN"`}, true)
}

func TestIntersectExceptThroughSQL(t *testing.T) {
	s := newTestSession(t, 2)
	expect(t, q(t, s, `SELECT dept_id FROM emp WHERE dept_id IS NOT NULL INTERSECT SELECT did FROM dept ORDER BY 1`),
		[]string{"10", "20"}, true)
	expect(t, q(t, s, `SELECT did FROM dept EXCEPT SELECT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY 1`),
		[]string{"40"}, true)
}

func TestNestedSubqueries(t *testing.T) {
	s := newTestSession(t, 1)
	// Subquery inside a subquery (Q20-style nesting).
	got := q(t, s, `SELECT dname FROM dept WHERE did IN (
		SELECT dept_id FROM emp WHERE salary > (SELECT avg(salary) FROM emp))
		ORDER BY 1`)
	expect(t, got, []string{`"sales"`}, true)
}
