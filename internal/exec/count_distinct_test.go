// count(DISTINCT) takes one of two routes through the physical planner: a
// lone count(DISTINCT e) becomes a nested group-by, every other shape keeps
// the count_distinct accumulator. These tests pin which statements take
// which route, and check both against the baseline engine, which always
// runs the accumulator over its own radix-partitioned tables.
package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
	"gofusion/internal/workload/clickbench"
	"gofusion/internal/workload/tpch"
)

func emptyTable(t *testing.T, schema *arrow.Schema) catalog.TableProvider {
	t.Helper()
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{nil})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func TestCountDistinctPlanShape(t *testing.T) {
	tables := map[string]catalog.TableProvider{"hits": emptyTable(t, clickbench.Schema())}
	for _, name := range []string{"part", "partsupp", "supplier"} {
		schema, err := tpch.Schema(name)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = emptyTable(t, schema)
	}
	abSchema := arrow.NewSchema(arrow.NewField("ts", arrow.Int64, false),
		arrow.NewField("a", arrow.Int64, true), arrow.NewField("b", arrow.Int64, true))
	tables["t"] = emptyTable(t, abSchema)
	stream, err := catalog.NewStreamTable(abSchema).WithWatermark("ts")
	if err != nil {
		t.Fatal(err)
	}
	tables["s"] = stream

	cb := clickbench.Queries()
	q16, err := tpch.Query(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, sql, want string }{
		{"clickbench-q05", cb[5], "nested"},
		{"clickbench-q06", cb[6], "nested"},
		{"clickbench-q09", cb[9], "nested"},
		{"clickbench-q11", cb[11], "nested"},
		{"clickbench-q12", cb[12], "nested"},
		{"clickbench-q14", cb[14], "nested"},
		{"tpch-q16", q16, "nested"},
		{"one-call-used-twice", "SELECT count(DISTINCT a) AS x, count(DISTINCT a) + 1 AS y FROM t", "nested"},
		{"clickbench-q10", cb[10], "residual"},
		{"clickbench-q23", cb[23], "residual"},
		{"two-arguments", "SELECT count(DISTINCT a), count(DISTINCT b) FROM t", "residual"},
		{"filter", "SELECT count(DISTINCT a) FILTER (WHERE b > 0) FROM t", "residual"},
		{"watermark-stream", "SELECT ts, count(DISTINCT a) FROM s GROUP BY ts", "residual"},
		{"no-distinct", "SELECT a, count(b) FROM t GROUP BY a", ""},
	} {
		for _, parts := range []int{1, 2} {
			pp := lowerSQL(t, tc.sql, tables, parts)
			if got := exec.DistinctShape(pp); got != tc.want {
				t.Errorf("%s at %d partitions: shape %q, want %q\n%s", tc.name, parts, got, tc.want, exec.ExplainPhysical(pp))
			}
		}
	}
}

// distinctRows builds n rows of (g, v, w, n, s, f): g a nullable group key
// over a few values; v and w nullable ints; n all NULL; s strings with
// empties and embedded NULs; f floats with both zeros and two NaN payloads.
func distinctRows(rng *rand.Rand, schema *arrow.Schema, n int) *arrow.RecordBatch {
	g := arrow.NewNumericBuilder[int64](arrow.Int64)
	v := arrow.NewNumericBuilder[int64](arrow.Int64)
	w := arrow.NewNumericBuilder[int64](arrow.Int64)
	nul := arrow.NewNumericBuilder[int64](arrow.Int64)
	s := arrow.NewStringBuilder(arrow.String)
	f := arrow.NewNumericBuilder[float64](arrow.Float64)
	floats := []float64{0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001)}
	for i := 0; i < n; i++ {
		if rng.Intn(20) == 0 {
			g.AppendNull()
		} else {
			g.Append(int64(rng.Intn(9)))
		}
		val := int64(rng.Intn(60)) - 30
		if rng.Intn(10) == 0 {
			v.AppendNull()
		} else {
			v.Append(val)
		}
		w.Append(val*3 + int64(rng.Intn(2)))
		nul.AppendNull()
		if rng.Intn(15) == 0 {
			s.AppendNull()
		} else {
			s.Append(diffKeyName(rng.Intn(200)))
		}
		if rng.Intn(8) == 0 {
			f.AppendNull()
		} else {
			f.Append(floats[rng.Intn(len(floats))])
		}
	}
	return arrow.NewRecordBatch(schema, []arrow.Array{g.Finish(), v.Finish(), w.Finish(), nul.Finish(), s.Finish(), f.Finish()})
}

func TestCountDistinctAgainstBaseline(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("g", arrow.Int64, true), arrow.NewField("v", arrow.Int64, true),
		arrow.NewField("w", arrow.Int64, true), arrow.NewField("n", arrow.Int64, true),
		arrow.NewField("s", arrow.String, true), arrow.NewField("f", arrow.Float64, true))
	rng := rand.New(rand.NewSource(20))
	var batches []*arrow.RecordBatch
	for i := 0; i < 8; i++ {
		batches = append(batches, diffSlices(rng, distinctRows(rng, schema, 400+rng.Intn(400)), 300)...)
	}
	be := baseline.New(2)
	be.RegisterBatches("t", schema, batches)
	be.RegisterBatches("empty", schema, nil)

	queries := []struct{ sql, shape string }{
		{"SELECT count(DISTINCT v) FROM t", "nested"},
		{"SELECT g, count(DISTINCT v) FROM t GROUP BY g", "nested"},
		{"SELECT g % 3, v IS NULL, count(DISTINCT w) FROM t GROUP BY g % 3, v IS NULL", "nested"},
		{"SELECT g, count(DISTINCT v % 7) FROM t GROUP BY g", "nested"},
		{"SELECT count(DISTINCT n) FROM t", "nested"},
		{"SELECT g, count(DISTINCT n) FROM t GROUP BY g", "nested"},
		{"SELECT count(DISTINCT v) FROM empty", "nested"},
		{"SELECT g, count(DISTINCT v) FROM empty GROUP BY g", "nested"},
		{"SELECT g, count(DISTINCT w) AS c FROM t GROUP BY g HAVING count(DISTINCT w) > 55", "nested"},
		{"SELECT g, count(DISTINCT w) AS c FROM t WHERE g IS NOT NULL GROUP BY g ORDER BY c DESC, g LIMIT 3", "nested"},
		{"SELECT count(DISTINCT v) AS a, count(DISTINCT v) AS b FROM t", "nested"},
		{"SELECT count(DISTINCT s) FROM t", "nested"},
		{"SELECT g, count(DISTINCT s) FROM t GROUP BY g", "nested"},
		{"SELECT count(DISTINCT f) FROM t", "nested"},
		{"SELECT g, count(DISTINCT f) FROM t GROUP BY g", "nested"},
		{"SELECT count(DISTINCT v), count(DISTINCT w) FROM t", "residual"},
		{"SELECT g, count(DISTINCT v) FILTER (WHERE w > 0), count(DISTINCT n) FROM t GROUP BY g", "residual"},
		{"SELECT g, count(DISTINCT s), count(DISTINCT f), count(*) FROM t GROUP BY g", "residual"},
		{"SELECT count(DISTINCT s), count(DISTINCT f), sum(v) FROM empty", "residual"},
	}
	for _, parts := range []int{1, 3, 4} {
		layout := make([][]*arrow.RecordBatch, parts)
		for i, b := range batches {
			layout[i%parts] = append(layout[i%parts], b)
		}
		mt, err := catalog.NewMemTable(schema, layout)
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]catalog.TableProvider{"t": mt, "empty": emptyTable(t, schema)}
		for _, q := range queries {
			name := fmt.Sprintf("%s at %d partitions", q.sql, parts)
			want, err := be.Query(q.sql)
			if err != nil {
				t.Fatalf("%s: baseline: %v", name, err)
			}
			pp := lowerSQL(t, q.sql, tables, parts)
			if got := exec.DistinctShape(pp); got != q.shape {
				t.Errorf("%s: shape %q, want %q", name, got, q.shape)
			}
			got, err := exec.CollectBatch(physical.NewExecContext(), pp)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if diff := testutil.Diff(testutil.NormalizeBatch(got), testutil.NormalizeBatch(want)); diff != "" {
				t.Errorf("%s: disagrees with baseline:\n%s", name, diff)
			}
			if err := exec.CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}

		// Both routes use GROUP BY's notion of equal: -0.0 and 0.0, and NaNs
		// of different payloads, count as often as GROUP BY f separates them.
		groups, err := exec.CollectBatch(physical.NewExecContext(), lowerSQL(t, "SELECT f FROM t GROUP BY f", tables, parts))
		if err != nil {
			t.Fatal(err)
		}
		nonNull := int64(groups.NumRows() - groups.Column(0).NullCount())
		for _, sqlText := range []string{"SELECT count(DISTINCT f) FROM t", "SELECT count(DISTINCT f), count(*) FROM t"} {
			got, err := exec.CollectBatch(physical.NewExecContext(), lowerSQL(t, sqlText, tables, parts))
			if err != nil {
				t.Fatal(err)
			}
			if n := got.Column(0).(*arrow.Int64Array).Value(0); n != nonNull {
				t.Errorf("%s at %d partitions = %d, GROUP BY f has %d non-null groups", sqlText, parts, n, nonNull)
			}
		}
	}
}

// TestCountDistinctStarvedPool runs a lone count(DISTINCT) under a pool no
// group table fits: de-duplication is ordinary grouping, so the partial side
// flushes early, the final side spills, the result is still exact, and every
// reservation and spill file is given back.
func TestCountDistinctStarvedPool(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("k_int", arrow.Int64, true), arrow.NewField("v", arrow.Int64, true),
		arrow.NewField("w", arrow.Int64, true), arrow.NewField("d", arrow.Int64, false))
	head, _ := shortRows(rand.New(rand.NewSource(512)), schema)
	be := baseline.New(2)
	be.RegisterBatches("t", schema, head)
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{head})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]catalog.TableProvider{"t": mt}
	for _, sqlText := range []string{
		"SELECT count(DISTINCT v) FROM t",
		"SELECT k_int, count(DISTINCT v) FROM t GROUP BY k_int",
	} {
		want, err := be.Query(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		dm := memory.NewDiskManager(dir)
		pool := memory.NewGreedyPool(512)
		ctx := physical.NewExecContext()
		ctx.Pool, ctx.Disk = pool, dm
		pp := lowerSQL(t, sqlText, tables, 3)
		got, err := exec.CollectBatch(ctx, pp)
		if err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
		if diff := testutil.Diff(testutil.NormalizeBatch(got), testutil.NormalizeBatch(want)); diff != "" {
			t.Errorf("%s: disagrees with baseline:\n%s", sqlText, diff)
		}
		flushes, _ := exec.PartialAggMetric(pp, "early_flushes")
		if spills, _ := exec.PlanSpillStats(pp); flushes == 0 && spills == 0 {
			t.Errorf("%s: neither an early flush nor a spill under a 512-byte pool:\n%s", sqlText, exec.ExplainPhysical(pp))
		}
		if held := pool.Reserved(); held != 0 {
			t.Errorf("%s: %d bytes still reserved", sqlText, held)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("%s: %d spill files left (%v)", sqlText, len(ents), err)
		}
		if err := dm.Close(); err != nil {
			t.Error(err)
		}
	}
}
