package exec_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/workload/clickbench"
	"gofusion/internal/workload/h2o"
	"gofusion/internal/workload/tpch"
)

// TestWorkloadPlanShapes plans and runs every TPC-H, ClickBench and H2O
// statement over the benchmark's table layouts (TPC-H and ClickBench in
// GPQ files, H2O from CSV) at one and two partitions, and checks the
// physical shapes the planner promises without a cleanup pass: every
// CoalescePartitionsExec merges more than one partition, and every
// FilterExec sits directly on the operator whose rows it filters, with no
// pass-through node in between. H2O q08's rn <= 2 keeps its per-group
// top-k window. ClickBench q30's 90 sums of ResolutionWidth + k aggregate
// as one sum and one count under a projection; every other statement
// aggregates the calls it is written with.
func TestWorkloadPlanShapes(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.WriteGPQ(filepath.Join(dir, "tpch"), 0.01, 2000); err != nil {
		t.Fatal(err)
	}
	if err := clickbench.WriteGPQ(filepath.Join(dir, "hits"), 20000, 8); err != nil {
		t.Fatal(err)
	}
	if err := h2o.WriteCSV(filepath.Join(dir, "g1.csv"), 20000); err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{}
	for n := 1; n <= 22; n++ {
		q, err := tpch.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		queries[fmt.Sprintf("tpch-q%02d", n)] = q
	}
	for n, q := range clickbench.Queries() {
		queries[fmt.Sprintf("clickbench-q%02d", n)] = q
	}
	for n, q := range h2o.Queries {
		queries[fmt.Sprintf("h2o-q%02d", n)] = q
	}
	for _, parts := range []int{1, 2} {
		s := core.NewSession(core.SessionConfig{TargetPartitions: parts})
		defer s.Close()
		if err := tpch.RegisterGPQ(s, filepath.Join(dir, "tpch")); err != nil {
			t.Fatal(err)
		}
		if err := clickbench.RegisterGPQ(s, filepath.Join(dir, "hits")); err != nil {
			t.Fatal(err)
		}
		if err := h2o.Register(s, filepath.Join(dir, "g1.csv")); err != nil {
			t.Fatal(err)
		}
		for name, q := range queries {
			df, err := s.SQL(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			_, qm, err := df.CollectWithMetrics()
			if err != nil {
				t.Fatalf("%s p%d: %v", name, parts, err)
			}
			for _, v := range planShapeViolations(qm.Plan) {
				t.Errorf("%s p%d: %s\n%s", name, parts, v, exec.ExplainPhysical(qm.Plan))
			}
			optimized, err := s.OptimizePlan(df.LogicalPlan())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v := aggregatesAsWritten(name, parts, optimized, qm.Plan); v != "" {
				t.Errorf("%s p%d: %s\n%s", name, parts, v, exec.ExplainPhysical(qm.Plan))
			}
			if name == "h2o-q08" && !windowTopKUnderFilter(qm.Plan, 2) {
				t.Errorf("%s p%d: no FilterExec over a WindowExec with topk=2\n%s", name, parts, exec.ExplainPhysical(qm.Plan))
			}
			// q11 and q22 compare against a one-row scalar subquery; their
			// nested-loop probe fuses into the pipeline of its probe side.
			// No statement plans a merge join.
			loops, fused, merges := countJoins(qm.Plan)
			wantLoops := 0
			if name == "tpch-q11" || name == "tpch-q22" {
				wantLoops = 1
			}
			if loops != wantLoops || parts == 2 && fused != loops || merges != 0 {
				t.Errorf("%s p%d: %d nested-loop joins (%d fused), %d merge joins; want %d, all fused at p2, none\n%s",
					name, parts, loops, fused, merges, wantLoops, exec.ExplainPhysical(qm.Plan))
			}
		}
	}
}

// aggregatesAsWritten checks the aggregates a statement's physical plan
// computes: for ClickBench q30, one sum and one count of ResolutionWidth
// (partial and final at two partitions) under a projection; for every other
// statement, only calls of its logical Aggregate nodes, by output name.
func aggregatesAsWritten(name string, parts int, optimized logical.Plan, p physical.ExecutionPlan) string {
	finals, partials := finalAggNames(p)
	if name == "clickbench-q30" {
		want := []string{"sum(ResolutionWidth)", "count(ResolutionWidth)"}
		if len(finals) != 1 || !slices.Equal(finals[0], want) || partials != parts-1 {
			return fmt.Sprintf("aggregates %q and %d partial aggregations, want %q and %d", finals, partials, want, parts-1)
		}
		if !projectionOverAggregate(p) {
			return "no ProjectionExec directly over the aggregation"
		}
		return ""
	}
	written := map[string]bool{}
	var walk func(logical.Plan)
	walk = func(n logical.Plan) {
		if a, ok := n.(*logical.Aggregate); ok {
			for _, f := range a.Schema().Fields()[len(a.GroupExprs):] {
				written[f.Name] = true
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(optimized)
	for _, f := range finals {
		for _, agg := range f {
			if !written[agg] {
				return fmt.Sprintf("aggregate %q is not a call of the statement", agg)
			}
		}
	}
	return ""
}

// projectionOverAggregate reports whether a ProjectionExec in p reads a
// HashAggregateExec directly.
func projectionOverAggregate(p physical.ExecutionPlan) bool {
	if proj, ok := p.(*exec.ProjectionExec); ok {
		if _, ok := proj.Input.(*exec.HashAggregateExec); ok {
			return true
		}
	}
	for _, c := range p.Children() {
		if projectionOverAggregate(c) {
			return true
		}
	}
	return false
}

// planShapeViolations lists each CoalescePartitionsExec over a single
// partition and each FilterExec over a node that only passes rows on.
func planShapeViolations(p physical.ExecutionPlan) []string {
	var out []string
	switch n := p.(type) {
	case *exec.CoalescePartitionsExec:
		if n.Input.Partitions() <= 1 {
			out = append(out, fmt.Sprintf("%s over %d partition", n, n.Input.Partitions()))
		}
	case *exec.FilterExec:
		switch n.Input.(type) {
		case *exec.FilterExec, *exec.CoalescePartitionsExec, *exec.GlobalLimitExec, *exec.LocalLimitExec:
			out = append(out, fmt.Sprintf("FilterExec over %T", n.Input))
		}
	}
	for _, c := range p.Children() {
		out = append(out, planShapeViolations(c)...)
	}
	return out
}

// countJoins counts the nested-loop joins of a plan, those of them that
// run as a stage of a PipelineExec, and the merge joins.
func countJoins(p physical.ExecutionPlan) (loops, fused, merges int) {
	switch n := p.(type) {
	case *exec.NestedLoopJoinExec:
		loops++
	case *exec.SortMergeJoinExec:
		merges++
	case *exec.PipelineExec:
		for _, st := range n.Stages {
			if _, ok := st.(*exec.NestedLoopJoinExec); ok {
				fused++
			}
		}
	}
	for _, c := range p.Children() {
		l, f, m := countJoins(c)
		loops, fused, merges = loops+l, fused+f, merges+m
	}
	return loops, fused, merges
}

// windowTopKUnderFilter reports whether the plan holds a FilterExec
// directly over a WindowExec limited to the top k rows per group.
func windowTopKUnderFilter(p physical.ExecutionPlan, k int64) bool {
	if f, ok := p.(*exec.FilterExec); ok {
		if w, ok := f.Input.(*exec.WindowExec); ok && w.TopK == k {
			return true
		}
	}
	for _, c := range p.Children() {
		if windowTopKUnderFilter(c, k) {
			return true
		}
	}
	return false
}
