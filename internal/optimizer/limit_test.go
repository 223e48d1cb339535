package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/optimizer"
)

// limitTable is 100 rows of (a, b): a descends from 99, so a sort on it
// reorders, and b = 1000 + row.
func limitTable(t *testing.T) (*arrow.Schema, []*arrow.RecordBatch) {
	t.Helper()
	schema := arrow.NewSchema(arrow.NewField("a", arrow.Int64, false), arrow.NewField("b", arrow.Int64, false))
	ab := arrow.NewNumericBuilder[int64](arrow.Int64)
	bb := arrow.NewNumericBuilder[int64](arrow.Int64)
	for r := int64(0); r < 100; r++ {
		ab.Append(99 - r)
		bb.Append(1000 + r)
	}
	return schema, []*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{ab.Finish(), bb.Finish()})}
}

// TestLimitPushdownToTopK: a Limit becomes the fetch of the Sort or scan
// below it, also through a Projection that drops the sort column, and the
// rows are those the unoptimized plan returns.
func TestLimitPushdownToTopK(t *testing.T) {
	reg := functions.NewRegistry()
	schema, batches := limitTable(t)
	src, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		t.Fatal(err)
	}
	optimized := func(b *logical.Builder) string {
		t.Helper()
		plan, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		out, err := optimizer.New(reg).Optimize(plan)
		if err != nil {
			t.Fatal(err)
		}
		return logical.Explain(out)
	}
	scan := func() *logical.Builder { return logical.NewBuilder(reg).Scan("t", src) }

	if text := optimized(scan().Sort(logical.SortAsc(logical.Col("a"))).Limit(0, 5)); !strings.Contains(text, "fetch=5") || !strings.Contains(text, "Sort") {
		t.Fatalf("limit not fused into sort:\n%s", text)
	}
	if text := optimized(scan().Limit(0, 7)); !strings.Contains(text, "TableScan: t") || !strings.Contains(text, "fetch=7") {
		t.Fatalf("limit not pushed into scan:\n%s", text)
	}
	// Limit -> Projection -> Sort: the Sort fetches skip + fetch rows.
	for _, skip := range []int64{0, 3} {
		text := optimized(scan().Sort(logical.SortAsc(logical.Col("a"))).Project(logical.Col("b")).Limit(skip, 5))
		want := fmt.Sprintf("fetch=%d", skip+5)
		sorted := false
		for _, line := range strings.Split(text, "\n") {
			sorted = sorted || strings.Contains(line, "Sort:") && strings.Contains(line, want)
		}
		if !sorted {
			t.Fatalf("skip=%d: limit did not reach the sort through the projection (%s):\n%s", skip, want, text)
		}
	}

	// The same rows with the optimizer off, at one and two partitions.
	for _, p := range []int{1, 2} {
		rows := map[bool][]string{}
		for _, off := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.TargetPartitions = p
			cfg.DisableOptimizer = off
			s := core.NewSession(cfg)
			if err := s.RegisterBatches("t", schema, batches); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"SELECT b FROM t ORDER BY a LIMIT 5",
				"SELECT b FROM t ORDER BY a LIMIT 5 OFFSET 3",
			} {
				df, err := s.SQL(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := df.CollectBatch()
				if err != nil {
					t.Fatal(err)
				}
				rows[off] = append(rows[off], q+": "+got.Column(0).String())
			}
		}
		if strings.Join(rows[false], "\n") != strings.Join(rows[true], "\n") {
			t.Fatalf("p=%d: optimizer changed rows:\non:  %v\noff: %v", p, rows[false], rows[true])
		}
	}
}

// TestOffsetLimitPlansOneLimit: LIMIT 3 OFFSET 2 over a fetch-limited sort
// plans one GlobalLimitExec, not a second one over the sort's own, at one
// and four partitions, and returns the rows of the unoptimized plan.
func TestOffsetLimitPlansOneLimit(t *testing.T) {
	schema := arrow.NewSchema(arrow.NewField("o_orderkey", arrow.Int64, false),
		arrow.NewField("o_totalprice", arrow.Float64, false))
	parts := make([][]*arrow.RecordBatch, 4)
	for p := range parts {
		keys := arrow.NewNumericBuilder[int64](arrow.Int64)
		prices := arrow.NewNumericBuilder[float64](arrow.Float64)
		for r := 0; r < 25; r++ {
			key := int64(p*25 + r)
			keys.Append(key)
			prices.Append(float64((key*37)%100) + 0.5)
		}
		parts[p] = []*arrow.RecordBatch{arrow.NewRecordBatch(schema, []arrow.Array{keys.Finish(), prices.Finish()})}
	}
	orders, err := catalog.NewMemTable(schema, parts)
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice LIMIT 3 OFFSET 2"
	for _, p := range []int{1, 4} {
		rows := map[bool]string{}
		for _, off := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.TargetPartitions = p
			cfg.DisableOptimizer = off
			s := core.NewSession(cfg)
			s.RegisterTable("orders", orders)
			df, err := s.SQL(q)
			if err != nil {
				t.Fatal(err)
			}
			batches, qm, err := df.CollectWithMetrics()
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				for i := 0; i < b.NumRows(); i++ {
					rows[off] += fmt.Sprintf("%v|%v ", b.Column(0).GetScalar(i), b.Column(1).GetScalar(i))
				}
			}
			if off {
				continue
			}
			plan := exec.ExplainPhysical(qm.Plan)
			if n := strings.Count(plan, "GlobalLimitExec"); n != 1 || !strings.Contains(plan, "GlobalLimitExec: skip=2 fetch=3") {
				t.Errorf("p=%d: want one GlobalLimitExec: skip=2 fetch=3, got %d limits:\n%s", p, n, plan)
			}
		}
		if rows[false] != rows[true] {
			t.Errorf("p=%d: optimizer changed rows:\non:  %s\noff: %s", p, rows[false], rows[true])
		}
		// Prices are key*37 mod 100 + 0.5, so the 3rd to 5th cheapest
		// orders are those with key*37 = 2, 3, 4 (mod 100).
		if want := "46|2.5 19|3.5 92|4.5 "; rows[false] != want {
			t.Errorf("p=%d: rows %q, want %q", p, rows[false], want)
		}
	}
}
