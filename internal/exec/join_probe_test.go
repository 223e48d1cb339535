// Hash join probe tests against TightDB (internal/baseline): output batch
// sizes under fan-out, the build's memory reservation, and the dense
// integer-key build for every join type. External test package because
// baseline links against exec.
package exec_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// keyTable is a table of a key column k of type typ (nil keys are NULL)
// and a payload v = row index.
type keyTable struct {
	name string
	typ  *arrow.DataType
	keys []*int64
}

func kv(v int64) *int64 { return &v }

func keyRange(lo, hi int64) []*int64 {
	var out []*int64
	for k := lo; k <= hi; k++ {
		out = append(out, kv(k))
	}
	return out
}

// keyArray builds keys as an array of typ; unsigned types take the int64
// bit pattern, so negative keys land above math.MaxInt64.
func keyArray(typ *arrow.DataType, keys []*int64) arrow.Array {
	switch typ.ID {
	case arrow.INT8:
		return buildKeys[int8](typ, keys)
	case arrow.INT32, arrow.DATE32:
		return buildKeys[int32](typ, keys)
	case arrow.UINT32:
		return buildKeys[uint32](typ, keys)
	case arrow.UINT64:
		return buildKeys[uint64](typ, keys)
	}
	return buildKeys[int64](typ, keys)
}

func buildKeys[T int8 | int32 | uint32 | int64 | uint64](typ *arrow.DataType, keys []*int64) arrow.Array {
	b := arrow.NewNumericBuilder[T](typ)
	for _, k := range keys {
		if k == nil {
			b.AppendNull()
		} else {
			b.Append(T(*k))
		}
	}
	return b.Finish()
}

// register deals the rows round-robin over four MemTable partitions of
// the session, in batches of at most 100 rows, and hands the same rows to
// TightDB.
func (tb keyTable) register(t *testing.T, s *core.SessionContext, be *baseline.Engine) {
	t.Helper()
	schema := arrow.NewSchema(arrow.NewField("k", tb.typ, true), arrow.NewField("v", arrow.Int64, false))
	const parts = 4
	partitions := make([][]*arrow.RecordBatch, parts)
	var all []*arrow.RecordBatch
	for p := 0; p < parts; p++ {
		var keys []*int64
		var vals []int64
		for r := p; r < len(tb.keys); r += parts {
			keys = append(keys, tb.keys[r])
			vals = append(vals, int64(r))
		}
		for lo := 0; lo == 0 || lo < len(keys); lo += 100 {
			hi := min(lo+100, len(keys))
			b := arrow.NewRecordBatch(schema, []arrow.Array{keyArray(tb.typ, keys[lo:hi]), arrow.NewInt64(vals[lo:hi])})
			partitions[p] = append(partitions[p], b)
			all = append(all, b)
		}
	}
	mt, err := catalog.NewMemTable(schema, partitions)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterTable(tb.name, mt)
	be.RegisterBatches(tb.name, schema, all)
}

// runJoin runs query on the engine, checks it against TightDB and returns
// the result batches and the executed plan.
func runJoin(t *testing.T, s *core.SessionContext, be *baseline.Engine, query string) ([]*arrow.RecordBatch, physical.ExecutionPlan) {
	t.Helper()
	df, err := s.SQL(query)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	batches, qm, err := df.CollectWithMetrics()
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	want, err := be.Query(query)
	if err != nil {
		t.Fatalf("baseline %q: %v", query, err)
	}
	got, err := compute.ConcatBatches(df.Schema().ToArrow(), batches)
	if err != nil {
		t.Fatal(err)
	}
	if diff := testutil.DiffBatches(got, want); diff != "" {
		t.Fatalf("%q disagrees with TightDB:\n%s", query, diff)
	}
	var total int64
	for _, b := range batches {
		total += int64(b.NumRows())
	}
	if err := exec.CheckPlanMetrics(qm.Plan, total); err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return batches, qm.Plan
}

// joinMetric sums a counter over the plan's hash joins and collects the
// join types they ran.
func joinMetric(p physical.ExecutionPlan, name string, types map[string]bool) int64 {
	var total int64
	if j, ok := p.(*exec.HashJoinExec); ok {
		total = j.Metrics().Snapshot().ExtraValue(name)
		if types != nil {
			types[j.Type.String()] = true
		}
	}
	for _, c := range p.Children() {
		total += joinMetric(c, name, types)
	}
	return total
}

// TestJoinOutputBatchesCapped: a probe batch whose rows each match 32
// build rows, and a left join owing hundreds of unmatched build rows at
// the end, both leave in batches of at most BatchRows rows, with the rows
// TightDB computes.
func TestJoinOutputBatchesCapped(t *testing.T) {
	const batch = 256
	var fan, owed []*int64
	for i := 0; i < 512; i++ {
		fan = append(fan, kv(int64(i%16)))
	}
	for i := 0; i < 600; i++ {
		owed = append(owed, kv(int64(1000+i)))
	}
	owed = append(owed, kv(3), kv(5))
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			s := core.NewSession(core.SessionConfig{TargetPartitions: parts, BatchRows: batch})
			be := baseline.New(2)
			keyTable{"t", arrow.Int64, fan}.register(t, s, be)
			keyTable{"u", arrow.Int64, owed}.register(t, s, be)
			for _, q := range []string{
				"SELECT a.k, a.v, b.v FROM t a JOIN t b ON a.k = b.k",
				"SELECT u.k, u.v, t.v FROM u LEFT JOIN t ON u.k = t.k",
				"SELECT u.k, u.v FROM u WHERE NOT EXISTS (SELECT 1 FROM t WHERE t.k = u.k)",
			} {
				batches, _ := runJoin(t, s, be, q)
				for _, b := range batches {
					if b.NumRows() > batch {
						t.Fatalf("%q: a %d-row batch, cap %d", q, b.NumRows(), batch)
					}
				}
			}
		})
	}
}

// TestJoinBuildReservation: a build of each join is charged to the memory
// pool until the last probe closes. Over the budget the join fails with the
// pool's typed error, leaving no reservation, goroutine or spill file
// behind; a dense array the pool refuses gives way to the group table.
func TestJoinBuildReservation(t *testing.T) {
	var keys []*int64
	for i := 0; i < 20000; i++ {
		keys = append(keys, kv(int64(i*3)))
	}
	build := keyTable{"big", arrow.Int64, keys}
	probe := keyTable{"small", arrow.Int64, keyRange(0, 99)}
	// scan reads one partition of sorted rows (the keys are ascending).
	scan := func(tb keyTable) physical.ExecutionPlan {
		t.Helper()
		s := core.NewSession(core.SessionConfig{})
		tb.registerSorted(t, s, baseline.New(1))
		tp, _ := s.Catalog().SchemaByName("public")
		table, _ := tp.Table(tb.name)
		res, err := table.Scan(catalog.ScanRequest{Partitions: 1, Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		return exec.NewTableScanExec(tb.name, res)
	}
	key := func(i int) physical.PhysicalExpr { return physical.NewColumnExpr(i, "k", arrow.Int64) }
	on := []exec.JoinOn{{L: key(0), R: key(0)}}
	hash := func(in physical.ExecutionPlan) physical.ExecutionPlan {
		return &exec.RepartitionExec{Input: in, Scheme: exec.HashPartitioning, HashExprs: []physical.PhysicalExpr{key(0)}, NumParts: 2}
	}
	joins := []struct {
		name, op string // subtest, and the consumer an over-budget build names
		join     func(l, r physical.ExecutionPlan) physical.ExecutionPlan
	}{
		{fmt.Sprintf("mode%d", exec.CollectLeft), "HashJoinExec", func(l, r physical.ExecutionPlan) physical.ExecutionPlan {
			return exec.NewHashJoinExec(l, r, on, nil, logical.InnerJoin, exec.CollectLeft)
		}},
		{fmt.Sprintf("mode%d", exec.PartitionedJoin), "HashJoinExec", func(l, r physical.ExecutionPlan) physical.ExecutionPlan {
			return exec.NewHashJoinExec(hash(l), hash(r), on, nil, logical.InnerJoin, exec.PartitionedJoin)
		}},
		{"NestedLoopJoinExec", "NestedLoopJoinExec", func(l, r physical.ExecutionPlan) physical.ExecutionPlan {
			// l.k = r.k: the filter reads column 0 of each side.
			eq := &exec.JoinFilter{Expr: &physical.BinaryExpr{Op: logical.OpEq, L: key(0), R: key(1), Type: arrow.Boolean},
				Columns: []int{0, 2}}
			return exec.NewNestedLoopJoinExec(l, &exec.RepartitionExec{Input: r, NumParts: 2}, eq, logical.InnerJoin)
		}},
		{"SortMergeJoinExec", "SortMergeJoinExec", func(l, r physical.ExecutionPlan) physical.ExecutionPlan {
			return exec.NewSortMergeJoinExec(l, r, on, nil, logical.InnerJoin)
		}},
	}
	for _, limit := range []int64{64 << 10, 16 << 20} {
		for _, j := range joins {
			t.Run(fmt.Sprintf("limit%d/%s", limit, j.name), func(t *testing.T) {
				defer testutil.CheckNoGoroutineLeak(t)()
				spillDir := t.TempDir()
				dm := memory.NewDiskManager(spillDir)
				pool := memory.NewGreedyPool(limit)
				ctx := physical.NewExecContext()
				ctx.Pool, ctx.Disk = pool, dm
				batches, err := exec.CollectPlan(ctx, j.join(scan(build), scan(probe)))
				var exhausted *memory.ErrResourcesExhausted
				if limit < 1<<20 {
					if !errors.As(err, &exhausted) || exhausted.Consumer != j.op {
						t.Fatalf("build over the %d-byte budget: err = %v, want the %s exhaustion", limit, err, j.op)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					var rows int
					for _, b := range batches {
						rows += b.NumRows()
					}
					if rows != 34 || pool.ReservedPeak() < 20000*8 {
						t.Fatalf("rows = %d (want 34), pool peak = %d (the build is not charged)", rows, pool.ReservedPeak())
					}
				}
				dm.Close()
				if pool.Reserved() != 0 {
					t.Fatalf("%d bytes still reserved", pool.Reserved())
				}
				if files, _ := os.ReadDir(spillDir); len(files) != 0 {
					t.Fatalf("%d spill files left", len(files))
				}
			})
		}
	}

	// Through a session: MemoryLimit bounds the build. In the partitioned
	// left join most build rows share one key, so one partition's build
	// fails while the others probe: the failed partition must let go of
	// its probe input, or the exchange feeding every probe stalls.
	skewed := keyTable{"skewed", arrow.Int64, append(append([]*int64{}, keys[:1000]...), keyRange(7, 7)...)}
	for i := 0; i < 15000; i++ {
		skewed.keys = append(skewed.keys, kv(7))
	}
	wide := keyTable{"wide", arrow.Int64, keyRange(0, 4999)}
	s := core.NewSession(core.SessionConfig{TargetPartitions: 4, BatchRows: 64, MemoryLimit: 64 << 10, SpillDir: t.TempDir()})
	be := baseline.New(1)
	build.register(t, s, be)
	probe.register(t, s, be)
	skewed.register(t, s, be)
	wide.register(t, s, be)
	for _, q := range []string{
		"SELECT big.v, small.v FROM big RIGHT JOIN small ON big.k = small.k",
		"SELECT skewed.v, wide.v FROM skewed LEFT JOIN wide ON skewed.k = wide.k ORDER BY 1",
	} {
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			var df *core.DataFrame
			if df, err = s.SQL(q); err == nil {
				_, err = df.CollectBatch()
			}
		}()
		select {
		case <-done:
			var exhausted *memory.ErrResourcesExhausted
			if !errors.As(err, &exhausted) || exhausted.Consumer != "HashJoinExec" {
				t.Fatalf("%s: err = %v, want the HashJoinExec exhaustion", q, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no result after 30s", q)
		}
	}

	// One key far from the rest makes big's 20 001 keys span 1<<20 values:
	// an array only the budget admits, 4 MiB of heads. Unlimited it is
	// built; under 2 MiB the pool refuses it and the build falls back to
	// the group table (about 0.7 MiB) with the same rows; under 512 KiB
	// neither fits and the join fails as before.
	sparse := keyTable{"sparse", arrow.Int64, append(append([]*int64{}, keys...), kv(1<<20-1))}
	const q = "SELECT sparse.v, small.v FROM sparse RIGHT JOIN small ON sparse.k = small.k"
	for _, parts := range []int{1, 2} {
		for _, limit := range []int64{0, 2 << 20, 512 << 10} {
			t.Run(fmt.Sprintf("sparse/p%d/limit%d", parts, limit), func(t *testing.T) {
				defer testutil.CheckNoGoroutineLeak(t)()
				s := core.NewSession(core.SessionConfig{TargetPartitions: parts, MemoryLimit: limit, SpillDir: t.TempDir()})
				be := baseline.New(1)
				sparse.register(t, s, be)
				probe.register(t, s, be)
				if limit == 512<<10 {
					df, err := s.SQL(q)
					if err == nil {
						_, err = df.CollectBatch()
					}
					// The table's request, not the array's, is the one refused.
					var exhausted *memory.ErrResourcesExhausted
					if !errors.As(err, &exhausted) || exhausted.Consumer != "HashJoinExec" || exhausted.Requested >= 4<<20 {
						t.Fatalf("err = %v, want the HashJoinExec exhaustion of the group table", err)
					}
					return
				}
				_, plan := runJoin(t, s, be, q)
				dense, hashed := joinMetric(plan, "dense_builds", nil), joinMetric(plan, "hashed_rows", nil)
				if want := limit == 0; (dense == 1) != want || (hashed == 0) != want {
					t.Fatalf("dense_builds=%d hashed_rows=%d, want a dense build %v", dense, hashed, want)
				}
			})
		}
	}
}

// denseCase is one key layout of the dense-key table test: the keys of
// the two tables and whether a one-partition build over b's keys indexes
// an array.
type denseCase struct {
	name  string
	typ   *arrow.DataType
	b, p  []*int64
	dense bool
}

func denseCases() []denseCase {
	withNulls := append(keyRange(-5, 40), nil, nil)
	dups := append(append(keyRange(0, 30), keyRange(10, 20)...), keyRange(10, 12)...)
	extremes := []*int64{kv(math.MaxInt64), kv(math.MaxInt64 - 1), kv(math.MinInt64), kv(math.MinInt64 + 1), kv(0)}
	// The array's two ways in. at-limit: n rows spanning exactly
	// denseRangePerRow*n + denseRangeMin values, the parity limit, with n
	// large enough that the span is past the budget. at-budget: 101 rows
	// spanning exactly denseBudget values (head[0 .. 1<<20-1]);
	// past-limit: one value more, past both.
	const n, budget = 150_000, 1 << 20
	atLimit := append(keyRange(0, n-2), kv(7*n+255))
	atBudget := append(keyRange(0, 99), kv(budget-1))
	pastLimit := append(keyRange(0, 99), kv(budget))
	edges := append(keyRange(-10, 120), kv(budget-2), kv(budget-1), kv(budget), kv(7*n+254), kv(7*n+255), kv(7*n+256))
	return []denseCase{
		{"negative", arrow.Int64, keyRange(-60, -20), keyRange(-80, 5), true},
		{"int32", arrow.Int32, append(keyRange(-10, 50), keyRange(0, 5)...), keyRange(-20, 70), true},
		{"int8", arrow.Int8, append(keyRange(-128, -100), keyRange(90, 127)...), keyRange(-128, 127), true},
		{"uint32", arrow.Uint32, keyRange(3, 90), keyRange(0, 120), true},
		// Across the signed boundary: -3..2 are 2^64-3 .. 2.
		{"uint64", arrow.Uint64, keyRange(-3, 40), keyRange(-9, 60), false},
		{"uint64-high", arrow.Uint64, keyRange(-50, -1), keyRange(-70, 3), true},
		// Days, microseconds and cents: integer-backed keys of other types.
		{"date32", arrow.Date32, keyRange(9000, 9400), keyRange(8990, 9100), true},
		{"timestamp", arrow.Timestamp, keyRange(1_000_000, 1_000_500), keyRange(999_990, 1_000_050), true},
		{"decimal", arrow.Decimal(12, 2), keyRange(-250, 400), keyRange(-300, 20), true},
		{"extremes", arrow.Int64, extremes, append(append([]*int64{}, extremes...), kv(1), kv(-1)), false},
		{"null-build", arrow.Int64, withNulls, keyRange(-10, 45), false},
		{"null-probe", arrow.Int64, keyRange(-5, 40), withNulls, true},
		{"duplicates", arrow.Int64, dups, append(dups, keyRange(-5, 50)...), true},
		{"empty-build", arrow.Int64, nil, keyRange(0, 40), false},
		{"at-limit", arrow.Int64, atLimit, edges, true},
		{"at-budget", arrow.Int64, atBudget, edges, true},
		{"past-limit", arrow.Int64, pastLimit, edges, false},
	}
}

// TestDenseJoinKeysMatchBaseline runs every join type over each key layout
// at one and four partitions against TightDB, and checks which layouts
// build a dense array.
func TestDenseJoinKeysMatchBaseline(t *testing.T) {
	queries := []string{
		"SELECT b.k, b.v, p.k, p.v FROM b JOIN p ON b.k = p.k",
		"SELECT b.k, b.v, p.k, p.v FROM b LEFT JOIN p ON b.k = p.k",
		"SELECT b.k, b.v, p.k, p.v FROM b RIGHT JOIN p ON b.k = p.k",
		"SELECT b.k, b.v, p.k, p.v FROM b FULL JOIN p ON b.k = p.k",
		"SELECT b.v, p.v FROM b JOIN p ON b.k = p.k AND b.v < p.v",
		"SELECT count(*) FROM b JOIN p ON b.k = p.k",
		"SELECT k, v FROM p WHERE k IN (SELECT k FROM b)",
		"SELECT k, v FROM b WHERE k IN (SELECT k FROM p)",
		"SELECT k, v FROM p WHERE NOT EXISTS (SELECT 1 FROM b WHERE b.k = p.k)",
		"SELECT k, v FROM b WHERE NOT EXISTS (SELECT 1 FROM p WHERE p.k = b.k)",
		"SELECT k, v FROM p WHERE EXISTS (SELECT 1 FROM b WHERE b.k = p.k AND b.v > p.v)",
		// Probe columns pass through the first join and are read twice,
		// under two names, by the stages after the second.
		"SELECT x.pv AS a, x.pv AS c, x.pv + x.pv, x.pk FROM (SELECT p.v AS pv, p.k AS pk FROM b JOIN p ON b.k = p.k) x JOIN b b2 ON x.pk = b2.k",
		"SELECT x.pk, count(*), sum(x.pv) FROM (SELECT p.v AS pv, p.k AS pk FROM b JOIN p ON b.k = p.k) x GROUP BY x.pk",
	}
	types := map[string]bool{}
	for _, c := range denseCases() {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", c.name, parts), func(t *testing.T) {
				s := core.NewSession(core.SessionConfig{TargetPartitions: parts})
				be := baseline.New(2)
				keyTable{"b", c.typ, c.b}.register(t, s, be)
				keyTable{"p", c.typ, c.p}.register(t, s, be)
				for _, q := range queries {
					_, plan := runJoin(t, s, be, q)
					joinMetric(plan, "", types)
				}
				if parts == 1 {
					// b LEFT JOIN p builds on b.
					_, plan := runJoin(t, s, be, queries[1])
					if got := joinMetric(plan, "dense_builds", nil) > 0; got != c.dense {
						t.Fatalf("dense build over b's keys = %v, want %v", got, c.dense)
					}
				}
			})
		}
	}
	for _, jt := range []string{"Inner", "Left", "Right", "Full", "LeftSemi", "RightSemi", "LeftAnti", "RightAnti"} {
		if !types[jt] {
			t.Errorf("no query ran a %s hash join (ran %v)", jt, types)
		}
	}
}

// TestJoinProbeFusesIntoPipeline: a hash join's probe runs inside the
// fused segment of its probe side, and its output projection has absorbed
// the bare-column projection above it.
func TestJoinProbeFusesIntoPipeline(t *testing.T) {
	s := core.NewSession(core.SessionConfig{TargetPartitions: 2})
	be := baseline.New(2)
	keyTable{"b", arrow.Int64, keyRange(0, 50)}.register(t, s, be)
	keyTable{"p", arrow.Int64, keyRange(0, 200)}.register(t, s, be)
	_, plan := runJoin(t, s, be, "SELECT p.k, sum(b.v) FROM b JOIN p ON b.k = p.k WHERE p.v > 3 GROUP BY p.k")
	text := exec.ExplainPhysical(plan)
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if strings.Contains(l, "HashJoinExec") && (i == 0 || !strings.Contains(lines[i-1], "HashAggregateExec: mode=Partial")) {
			t.Fatalf("the probe is not fused under the partial aggregate:\n%s", text)
		}
		if strings.Contains(l, "ProjectionExec") && i+1 < len(lines) && strings.Contains(lines[i+1], "HashJoinExec") {
			t.Fatalf("a projection sits on the join:\n%s", text)
		}
	}
	if !strings.Contains(text, "PipelineExec: stages=") || !strings.Contains(text, "projection=") {
		t.Fatalf("no fused segment or join projection:\n%s", text)
	}
}
