package h2o

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/testutil"
)

func TestWriteAndRegister(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g1.csv")
	if err := WriteCSV(path, 5000); err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(core.DefaultConfig())
	if err := Register(s, path); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT count(*), count(v3) FROM x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := df.CollectBatch()
	if err != nil {
		t.Fatal(err)
	}
	total := b.Column(0).(*arrow.Int64Array).Value(0)
	nonNull := b.Column(1).(*arrow.Int64Array).Value(0)
	if total != 5000 {
		t.Fatalf("rows = %d", total)
	}
	// ~5% of v3 is NA.
	if nonNull == total || float64(nonNull) < 0.9*float64(total) {
		t.Fatalf("v3 NA rate wrong: %d of %d", total-nonNull, total)
	}
	// Key cardinalities: id1 has 100 groups, id3 has ~n/100.
	df2, _ := s.SQL("SELECT count(DISTINCT id1), count(DISTINCT id3) FROM x")
	b2, err := df2.CollectBatch()
	if err != nil {
		t.Fatal(err)
	}
	if k := b2.Column(0).(*arrow.Int64Array).Value(0); k != 100 {
		t.Fatalf("id1 cardinality = %d", k)
	}
	if k := b2.Column(1).(*arrow.Int64Array).Value(0); k < 30 || k > 60 {
		t.Fatalf("id3 cardinality = %d (want ~50)", k)
	}
}

func TestAllQueriesRunSmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g1.csv")
	if err := WriteCSV(path, 3000); err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(core.DefaultConfig())
	if err := Register(s, path); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 10; n++ {
		df, err := s.SQL(Queries[n])
		if err != nil {
			t.Fatalf("q%d plan: %v", n, err)
		}
		if _, err := df.CollectBatch(); err != nil {
			t.Fatalf("q%d exec: %v", n, err)
		}
	}
}

// TestQ08TopKMatchesBaseline runs the group-wise top-2 query through the
// engine, whose physical top-k rewrite replaces the window sort with
// per-group heaps, and through the baseline engine, which evaluates the
// full window. q08 returns (id6, v3) only, so ties on v3 cannot show.
func TestQ08TopKMatchesBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g1.csv")
	if err := WriteCSV(path, 50_000); err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 4} {
		ref := baseline.New(parts)
		if err := ref.RegisterCSV("x", path); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(Queries[8])
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.TargetPartitions = parts
		s := core.NewSession(cfg)
		if err := Register(s, path); err != nil {
			t.Fatal(err)
		}
		df, err := s.SQL(Queries[8])
		if err != nil {
			t.Fatal(err)
		}
		batches, qm, err := df.CollectWithMetrics()
		if err != nil {
			t.Fatal(err)
		}
		got, err := compute.ConcatBatches(want.Schema(), batches)
		if err != nil {
			t.Fatal(err)
		}
		plan := exec.ExplainAnalyze(qm.Plan)
		t.Logf("p%d q08:\n%s", parts, plan)
		if want := fmt.Sprintf("partitions=%d topk=2", parts); !strings.Contains(plan, want) {
			t.Errorf("p%d: plan lacks %q", parts, want)
		}
		if parts > 1 && !strings.Contains(plan, "RepartitionExec: hash(") {
			t.Errorf("p%d: no hash exchange under the window", parts)
		}
		if d := testutil.DiffBatches(got, want); d != "" {
			t.Errorf("p%d: engine and baseline disagree:\n%s", parts, d)
		}
		if err := exec.CheckPlanMetrics(qm.Plan, int64(got.NumRows())); err != nil {
			t.Errorf("p%d: %v", parts, err)
		}
	}
}
