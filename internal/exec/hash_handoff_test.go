// Hash hand-off tests: a hash exchange sends each output batch with its
// rows' hashes, and the final aggregate and both sides of a partitioned
// hash join use them instead of hashing their keys again. External test
// package because baseline links against exec.
package exec_test

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// sparseKeys is n keys cycling through mod values spread too far apart for
// a dense join build, every 13th one NULL.
func sparseKeys(n, mod int) []*int64 {
	keys := make([]*int64, n)
	for i := range keys {
		if i%13 != 0 {
			keys[i] = kv(int64(i%mod) * 1_000_003)
		}
	}
	return keys
}

// TestExchangeHandsHashesOn runs two-phase aggregations and partitioned
// joins at two partitions against TightDB. Every final aggregate and both
// sides of every partitioned join must read the exchange's hashes
// (hashed_rows=0 in EXPLAIN ANALYZE), while the partial aggregates below
// hash their own input. The joins build on a, whose row count is above
// what the planner shares as one CollectLeft build.
func TestExchangeHandsHashesOn(t *testing.T) {
	s := core.NewSession(core.SessionConfig{TargetPartitions: 2})
	be := baseline.New(2)
	keyTable{"a", arrow.Int64, sparseKeys(100_400, 1500)}.register(t, s, be)
	keyTable{"b", arrow.Int64, sparseKeys(3000, 2000)}.register(t, s, be)
	hashedZero := regexp.MustCompile(`hashed_rows=0\b`)
	hashedSome := regexp.MustCompile(`hashed_rows=[1-9]`)
	for _, q := range []string{
		"SELECT k, count(*), sum(v) FROM a GROUP BY k",
		"SELECT k, v % 3, count(*) FROM a GROUP BY k, v % 3",
		"SELECT a.k, a.v, b.v FROM a LEFT JOIN b ON a.k = b.k",
		"SELECT a.k, a.v, b.k, b.v FROM a FULL JOIN b ON a.k = b.k AND a.v < b.v",
	} {
		t.Run(q, func(t *testing.T) {
			_, plan := runJoin(t, s, be, q)
			text := exec.ExplainAnalyze(plan)
			consumers := 0
			for _, line := range strings.Split(text, "\n") {
				switch {
				case strings.Contains(line, "HashAggregateExec: mode=Final"),
					strings.Contains(line, "HashJoinExec:"):
					consumers++
					if !hashedZero.MatchString(line) {
						t.Errorf("consumer of a hash exchange hashed rows itself:\n%s", line)
					}
					if strings.Contains(line, "HashJoinExec:") &&
						(!strings.Contains(line, "mode=Partitioned") || strings.Contains(line, "dense_builds")) {
						t.Errorf("want a partitioned join on a hash table:\n%s", line)
					}
				case strings.Contains(line, "HashAggregateExec: mode=Partial"):
					if !hashedSome.MatchString(line) {
						t.Errorf("partial aggregate hashed no rows:\n%s", line)
					}
				}
			}
			if consumers == 0 {
				t.Fatalf("no final aggregate or join in the plan:\n%s", text)
			}
		})
	}
}

// TestHandOffNeedsTheExchangeKeys puts a final aggregate over an exchange
// that hashes (a, b). Grouped by the same two expressions in the order
// (b, a) it must hash every row itself and still find the groups a
// single-phase aggregate finds; grouped by (a, b) it takes the exchange's
// hashes.
// Under a small pool the final aggregate spills and merges its spill files
// back with hashes of its own, which must agree with the ones it used.
func TestHandOffNeedsTheExchangeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := arrow.NewSchema(arrow.NewField("a", arrow.Int64, true), arrow.NewField("b", arrow.Int64, true))
	var batches []*arrow.RecordBatch
	for range 5 {
		a := arrow.NewNumericBuilder[int64](arrow.Int64)
		b := arrow.NewNumericBuilder[int64](arrow.Int64)
		for range 1000 {
			if rng.Intn(20) == 0 {
				a.AppendNull()
			} else {
				a.Append(rng.Int63n(50))
			}
			b.Append(rng.Int63n(40))
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{a.Finish(), b.Finish()}))
	}
	col := func(i int) physical.PhysicalExpr {
		return physical.NewColumnExpr(i, schema.Field(i).Name, arrow.Int64)
	}
	countFn, _ := diffReg.Agg("count")
	count, err := exec.NewAggSpec(countFn, "n", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := []exec.AggSpec{count}
	for _, tc := range []struct {
		name    string
		order   []int
		handOff bool
		pool    int64 // 0: unbounded
	}{
		{"swapped-keys", []int{1, 0}, false, 0},
		{"same-keys", []int{0, 1}, true, 0},
		{"swapped-keys-spilling", []int{1, 0}, false, 16 << 10},
		{"same-keys-spilling", []int{0, 1}, true, 16 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := physical.NewExecContext()
			if tc.pool > 0 {
				dm := memory.NewDiskManager(t.TempDir())
				t.Cleanup(func() { dm.Close() })
				ctx.Pool, ctx.Disk = memory.NewGreedyPool(tc.pool), dm
			}
			values := exec.NewValuesExec(schema, batches)
			partial := exec.NewHashAggregateExec(values, exec.PartialAgg,
				[]physical.PhysicalExpr{col(0), col(1)}, []string{"a", "b"}, specs)
			hashKeys := []physical.PhysicalExpr{col(0), col(1)}
			rep := &exec.RepartitionExec{Input: partial, Scheme: exec.HashPartitioning, NumParts: 2, HashExprs: hashKeys}
			keys, names := []physical.PhysicalExpr{hashKeys[tc.order[0]], hashKeys[tc.order[1]]},
				[]string{schema.Field(tc.order[0]).Name, schema.Field(tc.order[1]).Name}
			final := exec.NewHashAggregateExec(rep, exec.FinalAgg, keys, names, specs)
			got, err := exec.CollectBatch(ctx, final)
			if err != nil {
				t.Fatal(err)
			}
			if spilled := final.Metrics().Snapshot().SpillCount > 0; spilled != (tc.pool > 0) {
				t.Fatalf("final aggregate spilled: %v, want %v", spilled, tc.pool > 0)
			}
			single := exec.NewHashAggregateExec(exec.NewValuesExec(schema, batches), exec.SingleAgg, keys, names, specs)
			want, err := exec.CollectBatch(physical.NewExecContext(), single)
			if err != nil {
				t.Fatal(err)
			}
			if diff := testutil.DiffBatches(got, want); diff != "" {
				t.Fatalf("two-phase groups differ from single-phase:\n%s", diff)
			}
			if tc.pool > 0 {
				return // merging spill files hashes again
			}
			hashed := final.Metrics().Snapshot().ExtraValue("hashed_rows")
			delivered := rep.Metrics().Snapshot().OutputRows
			if tc.handOff && hashed != 0 {
				t.Errorf("hashed_rows = %d, want 0: the exchange's hashes fit these keys", hashed)
			}
			if !tc.handOff && hashed != delivered {
				t.Errorf("hashed_rows = %d, want every delivered row (%d)", hashed, delivered)
			}
		})
	}
}
