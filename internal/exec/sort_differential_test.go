// Sort-family differential test: ORDER BY with and without LIMIT / OFFSET
// over int, float, string and date keys with NULLs and duplicates runs
// through ExternalSortExec (in memory and merging spilled runs), TopKExec
// and SortPreservingMergeExec, and must return, in order, exactly what the
// baseline engine returns. A query whose keys have ties selects only
// columns tied rows agree on, so the expected sequence is unique.
package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// sortDiffBatches builds batches of up to 40 rows over t(i, f, s, d, u):
// four nullable keys drawn from a few values each and a unique u.
func sortDiffBatches(rng *rand.Rand, n int) (*arrow.Schema, []*arrow.RecordBatch) {
	schema := arrow.NewSchema(
		arrow.NewField("i", arrow.Int64, true),
		arrow.NewField("f", arrow.Float64, true),
		arrow.NewField("s", arrow.String, true),
		arrow.NewField("d", arrow.Date32, true),
		arrow.NewField("u", arrow.Int64, false),
	)
	strs := []string{"", "a", "a\x00", "ab", "b"}
	var batches []*arrow.RecordBatch
	perm := rng.Perm(n)
	for start := 0; start < n; {
		rows := min(1+rng.Intn(40), n-start)
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		fb := arrow.NewNumericBuilder[float64](arrow.Float64)
		sb := arrow.NewStringBuilder(arrow.String)
		db := arrow.NewNumericBuilder[int32](arrow.Date32)
		ub := arrow.NewNumericBuilder[int64](arrow.Int64)
		for r := 0; r < rows; r++ {
			null := func() bool { return rng.Intn(8) == 0 }
			if null() {
				ib.AppendNull()
			} else {
				ib.Append(int64(rng.Intn(11) - 5))
			}
			if null() {
				fb.AppendNull()
			} else {
				fb.Append(float64(rng.Intn(9)-4) / 2)
			}
			if null() {
				sb.AppendNull()
			} else {
				sb.Append(strs[rng.Intn(len(strs))])
			}
			if null() {
				db.AppendNull()
			} else {
				db.Append(int32(9000 + rng.Intn(7)))
			}
			ub.Append(int64(perm[start+r]))
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), fb.Finish(), sb.Finish(), db.Finish(), ub.Finish()}))
		start += rows
	}
	return schema, batches
}

func TestSortFamilyDifferential(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	const n = 600
	schema, batches := sortDiffBatches(rand.New(rand.NewSource(23)), n)
	be := baseline.New(2)
	be.RegisterBatches("t", schema, batches)
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]catalog.TableProvider{"t": mt}

	orders := []struct{ cols, by string }{
		{"i", "i"},
		{"i", "i DESC"},
		{"f", "f NULLS FIRST"},
		{"f", "f DESC NULLS LAST"},
		{"s", "s"},
		{"s", "s DESC NULLS FIRST"},
		{"d", "d"},
		{"d", "d DESC"},
		{"s, i", "s DESC NULLS LAST, i NULLS FIRST"},
		{"i, f, s, d, u", "i, u DESC"}, // a total order: every column is compared
	}
	var limits []string
	for _, k := range []int{0, 1, 7, n - 1, n, n + 5} {
		limits = append(limits, fmt.Sprintf(" LIMIT %d", k))
	}
	limits = append(limits, "", " LIMIT 7 OFFSET 3", " LIMIT 0 OFFSET 3", fmt.Sprintf(" LIMIT %d OFFSET 5", n))

	configs := []struct {
		name   string
		parts  int
		starve bool
	}{
		{"p1", 1, false},
		{"p3", 3, false},
		{"p4", 4, false},
		// A pool below a few input batches: the sorts spill run after run
		// and merge them (at p1, one sort merges them all).
		{"p1-spill", 1, true},
		{"p3-spill", 3, true},
	}
	const batchRows = 16
	for _, o := range orders {
		for _, limit := range limits {
			query := "SELECT " + o.cols + " FROM t ORDER BY " + o.by + limit
			want, err := be.Query(query)
			if err != nil {
				t.Fatalf("%s: baseline: %v", query, err)
			}
			for _, cfg := range configs {
				name := cfg.name + ": " + query
				pp := lowerSQLBatchRows(t, query, tables, cfg.parts, batchRows)
				ctx := physical.NewExecContext()
				ctx.BatchRows = batchRows
				if cfg.starve {
					dm := memory.NewDiskManager(t.TempDir())
					t.Cleanup(func() { dm.Close() })
					ctx.Pool = memory.NewGreedyPool(512)
					ctx.Disk = dm
				}
				out, err := exec.CollectPlan(ctx, pp)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, b := range out {
					if b.NumRows() > batchRows {
						t.Errorf("%s: a %d-row batch, BatchRows is %d", name, b.NumRows(), batchRows)
					}
				}
				got, err := compute.ConcatBatches(pp.Schema(), out)
				if err != nil {
					t.Fatal(err)
				}
				if d := testutil.DiffOrdered(got, want); d != "" {
					t.Errorf("%s:\n%s\n%s", name, d, exec.ExplainPhysical(pp))
				}
				if err := exec.CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if spills, _ := exec.PlanSpillStats(pp); cfg.starve && limit == "" && spills < 3 {
					t.Errorf("%s: %d runs spilled, want at least 3", name, spills)
				}
				if limit != "" && !strings.Contains(exec.ExplainPhysical(pp), "TopKExec") {
					t.Errorf("%s: no TopKExec in\n%s", name, exec.ExplainPhysical(pp))
				}
			}
		}
	}
}
