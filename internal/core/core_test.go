package core

import (
	"sort"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
)

// functionsScalarDouble is a test UDF registered through the public API.
var functionsScalarDouble = functions.ScalarFunc{
	Name: "double_it",
	ReturnType: func([]*arrow.DataType) (*arrow.DataType, error) {
		return arrow.Int64, nil
	},
	Eval: func(args []arrow.Datum, numRows int) (arrow.Datum, error) {
		in := args[0].ToArray(numRows).(*arrow.Int64Array)
		out := make([]int64, in.Len())
		for i, v := range in.Values() {
			out[i] = v * 2
		}
		return arrow.ArrayDatum(arrow.NewInt64(out)), nil
	},
}

// newTestSession registers small employee/department tables.
func newTestSession(t *testing.T, partitions int) *SessionContext {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TargetPartitions = partitions
	s := NewSession(cfg)

	empSchema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
		arrow.NewField("dept_id", arrow.Int64, true),
		arrow.NewField("salary", arrow.Float64, true),
		arrow.NewField("hired", arrow.Date32, false),
	)
	deptIDs := arrow.NewNumericBuilder[int64](arrow.Int64)
	for _, v := range []int64{10, 20, 10, 30, 20} {
		deptIDs.Append(v)
	}
	deptIDs.AppendNull()
	sal := arrow.NewNumericBuilder[float64](arrow.Float64)
	for _, v := range []float64{100, 200, 150, 300, 250} {
		sal.Append(v)
	}
	sal.AppendNull()
	hired := arrow.NewNumericBuilder[int32](arrow.Date32)
	for _, d := range []string{"2019-01-01", "2020-06-15", "2021-03-01", "2018-11-20", "2022-01-05", "2020-02-29"} {
		v, _ := arrow.ParseDate32(d)
		hired.Append(v)
	}
	emp := arrow.NewRecordBatch(empSchema, []arrow.Array{
		arrow.NewInt64([]int64{1, 2, 3, 4, 5, 6}),
		arrow.NewStringFromSlice([]string{"ann", "bob", "cat", "dan", "eve", "fox"}),
		deptIDs.Finish(),
		sal.Finish(),
		hired.Finish(),
	})
	if err := s.RegisterBatches("emp", empSchema, []*arrow.RecordBatch{emp}); err != nil {
		t.Fatal(err)
	}

	deptSchema := arrow.NewSchema(
		arrow.NewField("did", arrow.Int64, false),
		arrow.NewField("dname", arrow.String, false),
	)
	dept := arrow.NewRecordBatch(deptSchema, []arrow.Array{
		arrow.NewInt64([]int64{10, 20, 40}),
		arrow.NewStringFromSlice([]string{"eng", "sales", "hr"}),
	})
	if err := s.RegisterBatches("dept", deptSchema, []*arrow.RecordBatch{dept}); err != nil {
		t.Fatal(err)
	}
	return s
}

// q runs a SQL query and returns rendered rows.
func q(t *testing.T, s *SessionContext, query string) []string {
	t.Helper()
	df, err := s.SQL(query)
	if err != nil {
		t.Fatalf("planning %q: %v", query, err)
	}
	batch, err := df.CollectBatch()
	if err != nil {
		t.Fatalf("executing %q: %v", query, err)
	}
	out := make([]string, batch.NumRows())
	for i := range out {
		var parts []string
		for c := 0; c < batch.NumCols(); c++ {
			parts = append(parts, batch.Column(c).GetScalar(i).String())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func expect(t *testing.T, got, want []string, ordered bool) {
	t.Helper()
	g := append([]string{}, got...)
	w := append([]string{}, want...)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("got %d rows, want %d\ngot:  %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d:\ngot:  %v\nwant: %v", i, g, w)
		}
	}
}

func TestSQLBasics(t *testing.T) {
	for _, parts := range []int{1, 4} {
		s := newTestSession(t, parts)
		expect(t, q(t, s, "SELECT name FROM emp WHERE salary > 150 ORDER BY name"),
			[]string{`"bob"`, `"dan"`, `"eve"`}, true)
		expect(t, q(t, s, "SELECT id, salary * 2 AS dbl FROM emp WHERE id = 1"),
			[]string{"1|200"}, true)
		expect(t, q(t, s, "SELECT count(*), count(salary), min(salary), max(salary) FROM emp"),
			[]string{"6|5|100|300"}, true)
		expect(t, q(t, s, "SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY dept_id"),
			[]string{"10", "20", "30"}, true)
	}
}

func TestSQLGroupByHaving(t *testing.T) {
	for _, parts := range []int{1, 4} {
		s := newTestSession(t, parts)
		got := q(t, s, `SELECT dept_id, count(*) AS n, sum(salary) AS total
			FROM emp WHERE dept_id IS NOT NULL
			GROUP BY dept_id HAVING count(*) > 1 ORDER BY dept_id`)
		expect(t, got, []string{"10|2|250", "20|2|450"}, true)
	}
}

func TestSQLJoins(t *testing.T) {
	s := newTestSession(t, 2)
	expect(t, q(t, s, `SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.did ORDER BY e.name`),
		[]string{`"ann"|"eng"`, `"bob"|"sales"`, `"cat"|"eng"`, `"eve"|"sales"`}, true)
	expect(t, q(t, s, `SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept_id = d.did WHERE d.did IS NULL ORDER BY e.name`),
		[]string{`"dan"|NULL`, `"fox"|NULL`}, true)
	// comma join + where becomes inner join
	expect(t, q(t, s, `SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.did AND d.dname = 'eng' ORDER BY 1`),
		[]string{`"ann"`, `"cat"`}, true)
	// right join
	expect(t, q(t, s, `SELECT d.dname, count(e.id) FROM emp e RIGHT JOIN dept d ON e.dept_id = d.did GROUP BY d.dname ORDER BY d.dname`),
		[]string{`"eng"|2`, `"hr"|0`, `"sales"|2`}, true)
}

func TestSQLSubqueries(t *testing.T) {
	s := newTestSession(t, 1)
	// uncorrelated scalar
	expect(t, q(t, s, `SELECT name FROM emp WHERE salary > (SELECT avg(salary) FROM emp) ORDER BY name`),
		[]string{`"dan"`, `"eve"`}, true)
	// IN subquery
	expect(t, q(t, s, `SELECT name FROM emp WHERE dept_id IN (SELECT did FROM dept WHERE dname = 'eng')`),
		[]string{`"ann"`, `"cat"`}, false)
	// NOT IN subquery
	expect(t, q(t, s, `SELECT name FROM emp WHERE dept_id NOT IN (SELECT did FROM dept) AND dept_id IS NOT NULL`),
		[]string{`"dan"`}, false)
	// EXISTS correlated
	expect(t, q(t, s, `SELECT dname FROM dept WHERE EXISTS (SELECT 1 FROM emp WHERE emp.dept_id = dept.did)`),
		[]string{`"eng"`, `"sales"`}, false)
	// NOT EXISTS correlated
	expect(t, q(t, s, `SELECT dname FROM dept WHERE NOT EXISTS (SELECT 1 FROM emp WHERE emp.dept_id = dept.did)`),
		[]string{`"hr"`}, false)
	// correlated scalar aggregate
	expect(t, q(t, s, `SELECT e.name FROM emp e WHERE e.salary = (SELECT max(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id) AND e.dept_id IS NOT NULL ORDER BY 1`),
		[]string{`"cat"`, `"dan"`, `"eve"`}, true)
}

func TestSQLSetOps(t *testing.T) {
	s := newTestSession(t, 1)
	expect(t, q(t, s, `SELECT did FROM dept UNION SELECT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY 1`),
		[]string{"10", "20", "30", "40"}, true)
	expect(t, q(t, s, `SELECT did FROM dept INTERSECT SELECT dept_id FROM emp ORDER BY 1`),
		[]string{"10", "20"}, true)
	expect(t, q(t, s, `SELECT did FROM dept EXCEPT SELECT dept_id FROM emp ORDER BY 1`),
		[]string{"40"}, true)
}

func TestSQLWindowFunctions(t *testing.T) {
	s := newTestSession(t, 1)
	got := q(t, s, `SELECT name, row_number() OVER (PARTITION BY dept_id ORDER BY salary DESC) AS rk
		FROM emp WHERE dept_id IS NOT NULL ORDER BY name`)
	expect(t, got, []string{
		`"ann"|2`, `"bob"|2`, `"cat"|1`, `"dan"|1`, `"eve"|1`,
	}, true)
	got = q(t, s, `SELECT name, sum(salary) OVER (ORDER BY id) AS run FROM emp ORDER BY id`)
	expect(t, got, []string{
		`"ann"|100`, `"bob"|300`, `"cat"|450`, `"dan"|750`, `"eve"|1000`, `"fox"|1000`,
	}, true)
}

func TestSQLCTEs(t *testing.T) {
	s := newTestSession(t, 1)
	got := q(t, s, `WITH rich AS (SELECT * FROM emp WHERE salary >= 200)
		SELECT r.name FROM rich r ORDER BY r.name`)
	expect(t, got, []string{`"bob"`, `"dan"`, `"eve"`}, true)
}

func TestSQLExpressions(t *testing.T) {
	s := newTestSession(t, 1)
	expect(t, q(t, s, `SELECT CASE WHEN salary >= 250 THEN 'high' WHEN salary >= 150 THEN 'mid' ELSE 'low' END AS band, count(*)
		FROM emp WHERE salary IS NOT NULL GROUP BY 1 ORDER BY 1`),
		[]string{`"high"|2`, `"low"|1`, `"mid"|2`}, true)
	expect(t, q(t, s, `SELECT upper(name) || '!' FROM emp WHERE id = 1`),
		[]string{`"ANN!"`}, true)
	expect(t, q(t, s, `SELECT EXTRACT(YEAR FROM hired), count(*) FROM emp GROUP BY 1 HAVING count(*) > 1 ORDER BY 1`),
		[]string{"2020|2"}, true)
	expect(t, q(t, s, `SELECT name FROM emp WHERE hired BETWEEN DATE '2020-01-01' AND DATE '2020-12-31' ORDER BY 1`),
		[]string{`"bob"`, `"fox"`}, true)
	expect(t, q(t, s, `SELECT name FROM emp WHERE hired > DATE '2022-01-01' - INTERVAL '1' year ORDER BY 1`),
		[]string{`"cat"`, `"eve"`}, true)
	expect(t, q(t, s, `SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY 1`),
		[]string{`"ann"`, `"cat"`, `"dan"`}, true)
	expect(t, q(t, s, `SELECT coalesce(salary, 0) FROM emp WHERE id = 6`),
		[]string{"0"}, true)
	expect(t, q(t, s, `SELECT CAST(salary AS BIGINT) FROM emp WHERE id = 1`),
		[]string{"100"}, true)
}

func TestSQLOrderByVariants(t *testing.T) {
	s := newTestSession(t, 1)
	// order by alias
	expect(t, q(t, s, `SELECT name, salary * 2 AS dbl FROM emp WHERE salary IS NOT NULL ORDER BY dbl DESC LIMIT 2`),
		[]string{`"dan"|600`, `"eve"|500`}, true)
	// order by hidden column (not in projection)
	expect(t, q(t, s, `SELECT name FROM emp WHERE salary IS NOT NULL ORDER BY salary DESC LIMIT 2`),
		[]string{`"dan"`, `"eve"`}, true)
	// nulls ordering
	got := q(t, s, `SELECT id FROM emp ORDER BY salary ASC NULLS FIRST LIMIT 1`)
	expect(t, got, []string{"6"}, true)
}

// TestOrderByLimitZero: LIMIT 0 under an ORDER BY is a top-k of nothing. It
// returns no rows and the statement's schema, without a panic in the top-k
// or in the merge goroutines that prime its partitions.
func TestOrderByLimitZero(t *testing.T) {
	for _, parts := range []int{1, 4} {
		s := newTestSession(t, parts)
		for _, query := range []string{
			`SELECT name, salary FROM emp ORDER BY salary LIMIT 0`,
			`SELECT name, salary FROM emp ORDER BY salary DESC, name LIMIT 0 OFFSET 2`,
		} {
			df, err := s.SQL(query)
			if err != nil {
				t.Fatalf("p%d %q: %v", parts, query, err)
			}
			batch, err := df.CollectBatch()
			if err != nil {
				t.Fatalf("p%d %q: %v", parts, query, err)
			}
			if batch.NumRows() != 0 {
				t.Errorf("p%d %q: %d rows, want 0", parts, query, batch.NumRows())
			}
			schema := batch.Schema()
			if schema.NumFields() != 2 || schema.Field(0).Name != "name" || !schema.Field(1).Type.Equal(arrow.Float64) {
				t.Errorf("p%d %q: schema %v", parts, query, schema)
			}
		}
	}
}

func TestSQLGroupingSets(t *testing.T) {
	s := newTestSession(t, 1)
	got := q(t, s, `SELECT dept_id, count(*) FROM emp WHERE dept_id IS NOT NULL
		GROUP BY ROLLUP (dept_id) ORDER BY 1, 2`)
	// per-dept rows plus grand total (NULL, 5)
	expect(t, got, []string{"10|2", "20|2", "30|1", "NULL|5"}, true)
}

func TestDataFrameAPI(t *testing.T) {
	s := newTestSession(t, 2)
	df, err := s.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := df.
		Filter(&logical.BinaryExpr{Op: logical.OpGt, L: logical.Col("salary"), R: logical.Lit(100.0)}).
		SelectColumns("name", "salary").
		Sort(logical.SortDesc(logical.Col("salary"))).
		Limit(0, 2).
		CollectBatch()
	if err != nil {
		t.Fatal(err)
	}
	if batch.NumRows() != 2 || batch.Column(0).(*arrow.StringArray).Value(0) != "dan" {
		t.Fatalf("dataframe result wrong: %v", batch)
	}
	n, err := df.Count()
	if err != nil || n != 6 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestExplainOutput(t *testing.T) {
	s := newTestSession(t, 2)
	df, err := s.SQL("SELECT dept_id, count(*) FROM emp GROUP BY dept_id")
	if err != nil {
		t.Fatal(err)
	}
	text, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Logical Plan ==", "== Optimized Plan ==", "== Physical Plan ==", "HashAggregateExec"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain missing %q:\n%s", want, text)
		}
	}
	// EXPLAIN statement works through SQL too.
	rows := q(t, s, "EXPLAIN SELECT 1 FROM emp")
	if len(rows) == 0 {
		t.Fatal("EXPLAIN produced no rows")
	}
}

func TestShowFormatting(t *testing.T) {
	s := newTestSession(t, 1)
	df, _ := s.SQL("SELECT id, name FROM emp ORDER BY id LIMIT 2")
	var sb strings.Builder
	if err := df.Show(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "id") || !strings.Contains(out, "ann") {
		t.Fatalf("show output wrong:\n%s", out)
	}
}

func TestSQLErrors(t *testing.T) {
	s := newTestSession(t, 1)
	for _, bad := range []string{
		"SELECT missing_col FROM emp",
		"SELECT * FROM missing_table",
		"SELECT unknown_fn(id) FROM emp",
		"SELECT id FROM emp WHERE count(*) > 1",
		"SELECT id GROUP FROM emp",
	} {
		df, err := s.SQL(bad)
		if err == nil {
			_, err = df.Collect()
		}
		if err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestUDFThroughSQL(t *testing.T) {
	s := newTestSession(t, 1)
	s.Registry().RegisterScalar(&functionsScalarDouble)
	expect(t, q(t, s, "SELECT double_it(id) FROM emp WHERE id <= 2 ORDER BY 1"),
		[]string{"2", "4"}, true)
}
