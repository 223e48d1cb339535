package tpch_test

import (
	"math/rand"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/testutil"
	"gofusion/internal/workload/tpch"
)

// TestJoinOrderPlanShape runs all 22 queries at -p 4 over GPQ files: no
// plan keeps a cross product (every FROM list is connected by its WHERE
// clause), q18's IN subquery builds on the subquery side, and the metric
// invariants hold.
func TestJoinOrderPlanShape(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.WriteGPQ(dir, 0.01, 2048); err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(core.SessionConfig{TargetPartitions: 4})
	if err := tpch.RegisterGPQ(s, dir); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 22; n++ {
		q, err := tpch.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		df, err := s.SQL(q)
		if err != nil {
			t.Fatalf("Q%d plan: %v", n, err)
		}
		batches, qm, err := df.CollectWithMetrics()
		if err != nil {
			t.Fatalf("Q%d exec: %v", n, err)
		}
		plan := exec.ExplainPhysical(qm.Plan)
		if strings.Contains(plan, "type=Cross") {
			t.Errorf("Q%d joins a cross product:\n%s", n, plan)
		}
		if n == 18 && !strings.Contains(plan, "HashJoinExec: type=RightSemi") {
			t.Errorf("Q18's semi join does not build on the subquery side:\n%s", plan)
		}
		var rows int64
		for _, b := range batches {
			rows += int64(b.NumRows())
		}
		if err := exec.CheckPlanMetrics(qm.Plan, rows); err != nil {
			t.Errorf("Q%d: %v", n, err)
		}
	}
}

// fromLists are the comma-separated FROM lists of q2 (outer query and
// subquery), q8 and q9, as written in queries.go.
var fromLists = map[int][]string{
	2: {"part, supplier, partsupp, nation, region", "partsupp, supplier, nation, region"},
	8: {"part, supplier, lineitem, orders, customer, nation n1, nation n2, region"},
	9: {"part, supplier, lineitem, partsupp, orders, nation"},
}

// permutations returns the list reversed, rotated by two, and shuffled.
func permutations(list string, rng *rand.Rand) []string {
	items := strings.Split(list, ", ")
	n := len(items)
	rev := make([]string, n)
	rot := make([]string, n)
	for i, it := range items {
		rev[n-1-i] = it
		rot[(i+2)%n] = it
	}
	shuf := append([]string{}, items...)
	rng.Shuffle(n, func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	return []string{strings.Join(rev, ", "), strings.Join(rot, ", "), strings.Join(shuf, ", ")}
}

// TestFromOrderPermutationsAgree rewrites the FROM lists of q2, q8 and q9
// in other orders: join ordering must give every order the rows of the
// order the query was written in, at one and four partitions.
func TestFromOrderPermutationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, parts := range []int{1, 4} {
		s := core.NewSession(core.SessionConfig{TargetPartitions: parts})
		if err := tpch.RegisterInMemory(s, 0.01); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 8, 9} {
			q, err := tpch.Query(n)
			if err != nil {
				t.Fatal(err)
			}
			want := collectQuery(t, s, q)
			if want.NumRows() == 0 {
				t.Fatalf("Q%d returns no rows", n)
			}
			variants := []string{q, q, q}
			for _, list := range fromLists[n] {
				if !strings.Contains(q, "from "+list+"\n") {
					t.Fatalf("Q%d has no FROM list %q", n, list)
				}
				for i, perm := range permutations(list, rng) {
					variants[i] = strings.Replace(variants[i], "from "+list+"\n", "from "+perm+"\n", 1)
				}
			}
			for _, v := range variants {
				if diff := testutil.DiffBatches(collectQuery(t, s, v), want); diff != "" {
					t.Fatalf("Q%d p%d: permuted FROM list changes the result:\n%s\n%s", n, parts, v, diff)
				}
			}
		}
	}
}

func collectQuery(t *testing.T, s *core.SessionContext, q string) *arrow.RecordBatch {
	t.Helper()
	df, err := s.SQL(q)
	if err != nil {
		t.Fatalf("plan %s: %v", q, err)
	}
	b, err := df.CollectBatch()
	if err != nil {
		t.Fatalf("exec %s: %v", q, err)
	}
	return b
}
