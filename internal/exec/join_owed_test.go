// Owed-row joins over a shared build: LEFT, FULL, LEFT SEMI and LEFT ANTI
// joins run CollectLeft at any probe partition count, every probe
// partition marks one visited bitmap, and the last one to flush emits the
// build rows the join owes. External test package because baseline links
// against exec.
package exec_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

var owedSchema = arrow.NewSchema(arrow.NewField("k", arrow.Int64, true), arrow.NewField("v", arrow.Int64, false))

// owedRows is (k, v) rows as batches of at most three rows; a nil key is
// NULL.
func owedRows(keys []*int64, vals []int64) []*arrow.RecordBatch {
	var out []*arrow.RecordBatch
	for lo := 0; lo < len(keys); lo += 3 {
		hi := min(lo+3, len(keys))
		out = append(out, arrow.NewRecordBatch(owedSchema,
			[]arrow.Array{keyArray(arrow.Int64, keys[lo:hi]), arrow.NewInt64(vals[lo:hi])}))
	}
	return out
}

// owedScan scans a MemTable of exactly these partitions.
func owedScan(t *testing.T, name string, parts [][]*arrow.RecordBatch) physical.ExecutionPlan {
	t.Helper()
	mt, err := catalog.NewMemTable(owedSchema, parts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mt.Scan(catalog.ScanRequest{Partitions: len(parts), Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	return exec.NewTableScanExec(name, res)
}

// probeLayout deals rows over p partitions: at one partition all of them;
// at two a single-row partition and the rest; from three on an empty
// partition, a single-row one and the rest round-robin.
func probeLayout(keys []*int64, vals []int64, p int) [][]*arrow.RecordBatch {
	parts := make([][]*arrow.RecordBatch, p)
	if len(keys) == 0 || p == 1 {
		parts[0] = owedRows(keys, vals)
		return parts
	}
	first := 0
	if p > 2 {
		first = 1 // partition 0 stays empty
	}
	parts[first] = owedRows(keys[:1], vals[:1])
	rest := p - first - 1
	for r := 0; r < rest; r++ {
		var ks []*int64
		var vs []int64
		for i := 1 + r; i < len(keys); i += rest {
			ks, vs = append(ks, keys[i]), append(vs, vals[i])
		}
		parts[first+1+r] = owedRows(ks, vs)
	}
	return parts
}

type owedJoin struct {
	name, sql string
	// make builds the join of build b and probe p.
	make func(b, p physical.ExecutionPlan) physical.ExecutionPlan
	// owed reports whether output row i of a batch is a row the join owes
	// (a build row emitted at the end of the probe).
	owed func(b *arrow.RecordBatch, i int) bool
}

func owedJoins() []owedJoin {
	col := func(i int, name string) physical.PhysicalExpr { return physical.NewColumnExpr(i, name, arrow.Int64) }
	on := []exec.JoinOn{{L: col(0, "k"), R: col(0, "k")}}
	// b.v < p.v over the filter's two columns (b.v, p.v).
	vLess := &exec.JoinFilter{Expr: &physical.BinaryExpr{Op: logical.OpLt, L: col(0, "v"), R: col(1, "v"), Type: arrow.Boolean},
		Columns: []int{1, 3}}
	// b.k = p.k, the nested-loop join's only condition.
	kEq := &exec.JoinFilter{Expr: &physical.BinaryExpr{Op: logical.OpEq, L: col(0, "k"), R: col(1, "k"), Type: arrow.Boolean},
		Columns: []int{0, 2}}
	hash := func(f *exec.JoinFilter, jt logical.JoinType) func(b, p physical.ExecutionPlan) physical.ExecutionPlan {
		return func(b, p physical.ExecutionPlan) physical.ExecutionPlan {
			return exec.NewHashJoinExec(b, p, on, f, jt, exec.CollectLeft)
		}
	}
	rightNull := func(b *arrow.RecordBatch, i int) bool { return b.Column(3).IsNull(i) }
	every := func(*arrow.RecordBatch, int) bool { return true }
	return []owedJoin{
		{"left", "SELECT b.k, b.v, p.k, p.v FROM b LEFT JOIN p ON b.k = p.k",
			hash(nil, logical.LeftJoin), rightNull},
		{"full-filter", "SELECT b.k, b.v, p.k, p.v FROM b FULL JOIN p ON b.k = p.k AND b.v < p.v",
			hash(vLess, logical.FullJoin), rightNull},
		{"semi", "SELECT b.k, b.v FROM b WHERE EXISTS (SELECT 1 FROM p WHERE p.k = b.k)",
			hash(nil, logical.LeftSemiJoin), every},
		{"semi-filter", "SELECT b.k, b.v FROM b WHERE EXISTS (SELECT 1 FROM p WHERE p.k = b.k AND b.v < p.v)",
			hash(vLess, logical.LeftSemiJoin), every},
		{"anti", "SELECT b.k, b.v FROM b WHERE NOT EXISTS (SELECT 1 FROM p WHERE p.k = b.k)",
			hash(nil, logical.LeftAntiJoin), every},
		{"nested-loop-left", "SELECT b.k, b.v, p.k, p.v FROM b LEFT JOIN p ON b.k = p.k",
			func(b, p physical.ExecutionPlan) physical.ExecutionPlan {
				return exec.NewNestedLoopJoinExec(b, p, kEq, logical.LeftJoin)
			}, rightNull},
	}
}

// runPartitions executes every partition of plan, concurrently or one
// after another, and returns each partition's output.
func runPartitions(t *testing.T, ctx *physical.ExecContext, plan physical.ExecutionPlan, concurrent bool) [][]*arrow.RecordBatch {
	t.Helper()
	out := make([][]*arrow.RecordBatch, plan.Partitions())
	errs := make([]error, len(out))
	run := func(p int) {
		s, err := plan.Execute(ctx, p)
		if err != nil {
			errs[p] = err
			return
		}
		defer s.Close()
		for {
			b, err := s.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				errs[p] = err
				return
			}
			out[p] = append(out[p], b)
		}
	}
	var wg sync.WaitGroup
	for p := range out {
		if !concurrent {
			run(p)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(p)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
	return out
}

// TestCollectLeftOwedRows runs each owed-row join CollectLeft over one
// build and 1, 2 and 4 probe partitions (empty and single-row ones among
// them), with some, every and none of the build rows matched and with an
// empty probe. The rows must equal TightDB's, exactly one probe partition
// emits the owed build rows (none when nothing is owed), and the build's
// reservation is freed.
func TestCollectLeftOwedRows(t *testing.T) {
	var bkeys []*int64
	var bvals []int64
	for k := range int64(12) {
		bkeys, bvals = append(bkeys, kv(k)), append(bvals, k*10)
	}
	build := [][]*arrow.RecordBatch{
		owedRows(bkeys[:5], bvals[:5]),
		owedRows(bkeys[5:], bvals[5:]),
	}
	probes := map[string][]int64{
		"some":  {3, 100, 0, 5, -1, 101, 2, 4, 102, 1},
		"all":   {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 6, 50},
		"none":  {100, 101, 102, 103, 104, 105},
		"empty": nil,
	}
	for _, scenario := range []string{"some", "all", "none", "empty"} {
		var keys []*int64
		var vals []int64
		for i, k := range probes[scenario] {
			if k < 0 {
				keys = append(keys, nil)
			} else {
				keys = append(keys, kv(k))
			}
			// Half the pairs pass b.v < p.v.
			vals = append(vals, k*10+int64(i%2*2-1))
		}
		for _, p := range []int{1, 2, 4} {
			be := baseline.New(p)
			be.RegisterBatches("b", owedSchema, append(append([]*arrow.RecordBatch{}, build[0]...), build[1]...))
			be.RegisterBatches("p", owedSchema, owedRows(keys, vals))
			for _, j := range owedJoins() {
				for _, concurrent := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/p%d/%s/concurrent=%v", scenario, p, j.name, concurrent), func(t *testing.T) {
						ctx := physical.NewExecContext()
						plan := j.make(owedScan(t, "b", build), owedScan(t, "p", probeLayout(keys, vals, p)))
						if plan.Partitions() != p {
							t.Fatalf("join has %d partitions, want %d", plan.Partitions(), p)
						}
						parts := runPartitions(t, ctx, plan, concurrent)
						var all []*arrow.RecordBatch
						emitters, owedTotal := 0, 0
						for _, batches := range parts {
							owed := 0
							for _, b := range batches {
								all = append(all, b)
								for i := range b.NumRows() {
									if j.owed(b, i) {
										owed++
									}
								}
							}
							if owed > 0 {
								emitters++
							}
							owedTotal += owed
						}
						want, err := be.Query(j.sql)
						if err != nil {
							t.Fatal(err)
						}
						got, err := compute.ConcatBatches(plan.Schema(), all)
						if err != nil {
							t.Fatal(err)
						}
						if diff := testutil.DiffBatches(got, want); diff != "" {
							t.Fatalf("disagrees with TightDB:\n%s", diff)
						}
						if want := min(owedTotal, 1); emitters != want {
							t.Fatalf("%d probe partitions emitted the %d owed build rows, want %d", emitters, owedTotal, want)
						}
						if got := ctx.Pool.Reserved(); got != 0 {
							t.Fatalf("%d bytes still reserved after every probe closed", got)
						}
					})
				}
			}
		}
	}
}

// TestCollectLeftOwedRowsCancelMidProbe opens every probe partition of a
// shared LEFT build, reads one batch from each and cancels. Every next
// read fails with the cancellation (none ends like a complete probe with
// the owed rows), and after Close no goroutine, reservation or spill file
// is left.
func TestCollectLeftOwedRowsCancelMidProbe(t *testing.T) {
	for _, jt := range []logical.JoinType{logical.LeftJoin, logical.LeftAntiJoin} {
		t.Run(jt.String(), func(t *testing.T) {
			defer testutil.CheckNoGoroutineLeak(t)()
			spillDir := t.TempDir()
			dm := memory.NewDiskManager(spillDir)
			defer dm.Close()
			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := physical.NewExecContext()
			ctx.Ctx, ctx.Pool, ctx.Disk, ctx.BatchRows = cctx, memory.NewGreedyPool(64<<20), dm, 4

			var keys []*int64
			var vals []int64
			for i := range int64(400) {
				keys, vals = append(keys, kv(i%50)), append(vals, i)
			}
			const parts = 4
			probe := make([][]*arrow.RecordBatch, parts)
			for p := range probe {
				probe[p] = owedRows(keys, vals)
			}
			build := [][]*arrow.RecordBatch{owedRows(keys[:100], vals[:100])}
			on := []exec.JoinOn{{L: physical.NewColumnExpr(0, "k", arrow.Int64), R: physical.NewColumnExpr(0, "k", arrow.Int64)}}
			plan := exec.NewHashJoinExec(owedScan(t, "b", build), owedScan(t, "p", probe), on, nil, jt, exec.CollectLeft)

			streams := make([]physical.Stream, parts)
			for p := range streams {
				s, err := plan.Execute(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				streams[p] = s
				if jt == logical.LeftJoin {
					switch _, err := s.Next(); {
					case err == io.EOF:
						t.Fatalf("partition %d: the probe ended before its first batch", p)
					case err != nil:
						t.Fatalf("partition %d: first batch: %v", p, err)
					}
				}
			}
			if ctx.Pool.Reserved() == 0 {
				t.Fatal("the shared build reserved nothing")
			}
			cancel()
			for p, s := range streams {
				if _, err := s.Next(); err == io.EOF || !errors.Is(err, context.Canceled) {
					t.Errorf("partition %d: read after cancel: %v, want context.Canceled", p, err)
				}
				s.Close()
			}
			if got := ctx.Pool.Reserved(); got != 0 {
				t.Errorf("%d bytes still reserved after Close", got)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				files, _ := os.ReadDir(spillDir)
				if len(files) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d spill files left after Close", len(files))
				}
			}
		})
	}
}
