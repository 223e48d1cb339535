// Ordered aggregation at scale: a table declared sorted on its group key
// runs on the ordered aggregate (groups emitted as their runs complete), and
// must agree with the independent baseline engine and with the same rows
// aggregated by hash, at one and two partitions and under a starved pool.
package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// orderedRows is 10 000 groups of three rows, g ascending, then a run of
// five NULL keys, cut into 1 000-row batches: runs cross batch boundaries.
// v is NULL in one row in nine and in every row of each 50th group, so
// some groups aggregate nothing but NULLs.
func orderedRows(schema *arrow.Schema) []*arrow.RecordBatch {
	rng := rand.New(rand.NewSource(26))
	g := arrow.NewNumericBuilder[int64](arrow.Int64)
	v := arrow.NewNumericBuilder[int64](arrow.Int64)
	appendRow := func(key int64, null bool) {
		if null {
			g.AppendNull()
		} else {
			g.Append(key)
		}
		if rng.Intn(9) == 0 || key%50 == 7 {
			v.AppendNull()
		} else {
			v.Append(int64(rng.Intn(200)) - 100)
		}
	}
	for key := int64(0); key < 10_000; key++ {
		for r := 0; r < 3; r++ {
			appendRow(key, false)
		}
	}
	for r := 0; r < 5; r++ {
		appendRow(0, true)
	}
	all := arrow.NewRecordBatch(schema, []arrow.Array{g.Finish(), v.Finish()})
	var out []*arrow.RecordBatch
	for off := 0; off < all.NumRows(); off += 1000 {
		out = append(out, all.Slice(off, min(1000, all.NumRows()-off)))
	}
	return out
}

// aggregatesOf lists the plan's HashAggregateExec nodes.
func aggregatesOf(p physical.ExecutionPlan) []*exec.HashAggregateExec {
	var out []*exec.HashAggregateExec
	if agg, ok := p.(*exec.HashAggregateExec); ok {
		out = append(out, agg)
	}
	for _, c := range p.Children() {
		out = append(out, aggregatesOf(c)...)
	}
	return out
}

func TestOrderedAggregateDifferential(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	schema := arrow.NewSchema(arrow.NewField("g", arrow.Int64, true), arrow.NewField("v", arrow.Int64, true))
	batches := orderedRows(schema)
	be := baseline.New(1)
	be.RegisterBatches("t", schema, batches)

	queries := []struct {
		name, sql string
		p1Only    bool // the result depends on arrival order within a group
	}{
		{name: "basic", sql: "SELECT g, sum(v), count(*), count(v), min(v), max(v), avg(v), median(v), " +
			"sum(v) FILTER (WHERE v > 0), count(*) FILTER (WHERE v IS NULL) FROM t GROUP BY g"},
		{name: "distinct-arg", sql: "SELECT g, count(DISTINCT v), sum(v) FROM t GROUP BY g"},
		{name: "distinct", sql: "SELECT DISTINCT g FROM t"},
		{name: "first-last", sql: "SELECT g, first_value(v), last_value(v) FROM t GROUP BY g", p1Only: true},
	}
	for _, parts := range []int{1, 2} {
		// Each partition deals every parts-th batch, so it is sorted on g
		// and a run cut by a batch boundary may continue in the other one.
		layout := make([][]*arrow.RecordBatch, parts)
		for i, b := range batches {
			layout[i%parts] = append(layout[i%parts], b)
		}
		tables := map[bool]*catalog.MemTable{}
		for _, sorted := range []bool{false, true} {
			mt, err := catalog.NewMemTable(schema, layout)
			if err != nil {
				t.Fatal(err)
			}
			if sorted {
				mt.WithSortOrder([]catalog.OrderedCol{{Name: "g"}})
			}
			tables[sorted] = mt
		}
		for _, q := range queries {
			if q.p1Only && parts > 1 {
				continue
			}
			ref, err := be.Query(q.sql)
			if err != nil {
				t.Fatalf("%s: baseline: %v", q.name, err)
			}
			want := testutil.NormalizeBatch(ref)
			for _, starve := range []bool{false, true} {
				name := fmt.Sprintf("p%d/%s/starve=%v", parts, q.name, starve)
				results := map[bool][]testutil.Row{}
				for _, sorted := range []bool{false, true} {
					pp := lowerSQL(t, q.sql, map[string]catalog.TableProvider{"t": tables[sorted]}, parts)
					explain := exec.ExplainPhysical(pp)
					mode := "Single"
					if parts > 1 {
						mode = "Partial"
					}
					if isOrdered := strings.Contains(explain, "mode="+mode+" ordered"); isOrdered != sorted {
						t.Fatalf("%s: declared order %v, ordered aggregate %v:\n%s", name, sorted, isOrdered, explain)
					}
					ctx := physical.NewExecContext()
					if starve {
						dm := memory.NewDiskManager(t.TempDir())
						defer dm.Close()
						ctx.Pool = memory.NewGreedyPool(512)
						ctx.Disk = dm
					}
					got, err := exec.CollectBatch(ctx, pp)
					if err != nil {
						t.Fatalf("%s sorted=%v: %v", name, sorted, err)
					}
					results[sorted] = testutil.NormalizeBatch(got)
					if err := exec.CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
						t.Errorf("%s sorted=%v: %v", name, sorted, err)
					}
					if held := ctx.Pool.Reserved(); held != 0 {
						t.Errorf("%s sorted=%v: %d bytes still reserved", name, sorted, held)
					}
					if !sorted {
						continue
					}
					for _, agg := range aggregatesOf(pp) {
						if !agg.InputOrdered {
							continue
						}
						s := agg.Metrics().Snapshot()
						if s.SpillCount != 0 {
							t.Errorf("%s: an ordered aggregate spilled %d times", name, s.SpillCount)
						}
						// Under a pool below any table's footprint every batch
						// that starts a group emits the completed ones.
						perPartition := int64(len(batches) / parts)
						if starve && s.OutputBatches < perPartition*int64(parts)-2 {
							t.Errorf("%s: %d output batches from %d input batches, want early emission under pressure",
								name, s.OutputBatches, len(batches))
						}
					}
				}
				if diff := testutil.Diff(results[true], want); diff != "" {
					t.Fatalf("%s: ordered aggregate disagrees with baseline:\n%s", name, diff)
				}
				if diff := testutil.Diff(results[true], results[false]); diff != "" {
					t.Fatalf("%s: ordered and hashed aggregates disagree:\n%s", name, diff)
				}
			}
		}
	}
}

// TestOrderedAggregateUnsortedInput declares a sort order the data does
// not have. The engine trusts the declaration, so a group may be emitted
// more than once, but the aggregate must not fail or lose rows: added up
// per key, the output equals the true counts and sums. Shuffled keys put a
// row of the last group a batch assigns before that group's final run,
// both when the table reaches BatchRows groups and under a starved pool.
func TestOrderedAggregateUnsortedInput(t *testing.T) {
	const groups, perGroup = 3000, 3
	schema := arrow.NewSchema(arrow.NewField("g", arrow.Int64, false), arrow.NewField("v", arrow.Int64, false))
	keys := make([]int64, 0, groups*perGroup)
	for k := int64(0); k < groups; k++ {
		for r := 0; r < perGroup; r++ {
			keys = append(keys, k)
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = k*10 + int64(i%perGroup)
	}
	all := arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(keys), arrow.NewInt64(vals)})
	var batches []*arrow.RecordBatch
	for off := 0; off < len(keys); off += 500 {
		batches = append(batches, all.Slice(off, min(500, len(keys)-off)))
	}
	wantCount := make([]int64, groups)
	wantSum := make([]int64, groups)
	for i, k := range keys {
		wantCount[k]++
		wantSum[k] += vals[i]
	}
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		t.Fatal(err)
	}
	mt.WithSortOrder([]catalog.OrderedCol{{Name: "g"}})
	const query = "SELECT g, count(*), sum(v) FROM t GROUP BY g"

	for _, starve := range []bool{false, true} {
		pp := lowerSQL(t, query, map[string]catalog.TableProvider{"t": mt}, 1)
		if explain := exec.ExplainPhysical(pp); !strings.Contains(explain, "mode=Single ordered") {
			t.Fatalf("want the ordered aggregate:\n%s", explain)
		}
		ctx := physical.NewExecContext()
		ctx.BatchRows = 256
		if starve {
			ctx.Pool = memory.NewGreedyPool(512)
		}
		got, err := exec.CollectBatch(ctx, pp)
		if err != nil {
			t.Fatalf("starve=%v: %v", starve, err)
		}
		if got.NumRows() <= groups {
			t.Errorf("starve=%v: %d output rows for %d groups: the early emission never ran", starve, got.NumRows(), groups)
		}
		gotCount := make([]int64, groups)
		gotSum := make([]int64, groups)
		g := got.Column(0).(*arrow.Int64Array)
		c := got.Column(1).(*arrow.Int64Array)
		s := got.Column(2).(*arrow.Int64Array)
		for i := 0; i < got.NumRows(); i++ {
			gotCount[g.Value(i)] += c.Value(i)
			gotSum[g.Value(i)] += s.Value(i)
		}
		for k := range wantCount {
			if gotCount[k] != wantCount[k] || gotSum[k] != wantSum[k] {
				t.Fatalf("starve=%v: group %d adds up to count %d sum %d, want %d and %d",
					starve, k, gotCount[k], gotSum[k], wantCount[k], wantSum[k])
			}
		}
		if err := exec.CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
			t.Errorf("starve=%v: %v", starve, err)
		}
		if held := ctx.Pool.Reserved(); held != 0 {
			t.Errorf("starve=%v: %d bytes still reserved", starve, held)
		}
	}
}
