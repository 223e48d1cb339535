package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
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
