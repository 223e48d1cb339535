package exec_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// registerSorted registers the rows as one MemTable partition sorted on k
// (NULLs last), in batches of at most 100 rows, and hands the same rows
// to TightDB.
func (tb keyTable) registerSorted(t *testing.T, s *core.SessionContext, be *baseline.Engine) {
	t.Helper()
	keys := append([]*int64(nil), tb.keys...)
	sort.SliceStable(keys, func(i, j int) bool {
		return keys[j] == nil && keys[i] != nil || keys[i] != nil && keys[j] != nil && *keys[i] < *keys[j]
	})
	schema := arrow.NewSchema(arrow.NewField("k", tb.typ, true), arrow.NewField("v", arrow.Int64, false))
	var batches []*arrow.RecordBatch
	for lo := 0; lo == 0 || lo < len(keys); lo += 100 {
		hi := min(lo+100, len(keys))
		vals := make([]int64, hi-lo)
		for i := range vals {
			vals[i] = int64(lo + i)
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{keyArray(tb.typ, keys[lo:hi]), arrow.NewInt64(vals)}))
	}
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterTable(tb.name, mt.WithSortOrder([]catalog.OrderedCol{{Name: "k"}}))
	be.RegisterBatches(tb.name, schema, batches)
}

// joinsRun records the operator and type of every join in the plan.
func joinsRun(p physical.ExecutionPlan, seen map[string]bool) {
	switch j := p.(type) {
	case *exec.HashJoinExec:
		seen["HashJoinExec/"+j.Type.String()] = true
	case *exec.NestedLoopJoinExec:
		seen["NestedLoopJoinExec/"+j.Type.String()] = true
	case *exec.SortMergeJoinExec:
		seen["SortMergeJoinExec/"+j.Type.String()] = true
	}
	for _, c := range p.Children() {
		joinsRun(c, seen)
	}
}

// TestJoinTypesOnEveryJoin runs every join type, and outer joins with a
// residual filter, on each of the three joins over NULL keys, an empty side
// and a build of many output batches, at one and two partitions, against
// TightDB: the hash join over an equality, the nested-loop join over the
// same condition written as two inequalities, and the merge join over the
// equality between inputs sorted on the key. Every output batch holds at
// most BatchRows rows.
func TestJoinTypesOnEveryJoin(t *testing.T) {
	const batchRows = 64
	var dups []*int64
	for i := 0; i < 400; i++ {
		dups = append(dups, kv(int64(i%50)))
	}
	withNulls := append(append(keyRange(-5, 30), nil, nil), keyRange(10, 15)...)
	cases := []struct {
		name string
		b, p []*int64
	}{
		{"nulls", withNulls, append(keyRange(0, 40), nil)},
		{"empty-build", nil, keyRange(0, 40)},
		{"empty-probe", keyRange(0, 40), nil},
		{"large-build", dups, append(keyRange(-10, 60), keyRange(5, 9)...)},
	}
	joins := []struct {
		op     string
		on     string // the join condition of x and y
		sorted bool
	}{
		{"HashJoinExec", "%[1]s.k = %[2]s.k", false},
		{"NestedLoopJoinExec", "%[1]s.k <= %[2]s.k AND %[1]s.k >= %[2]s.k", false},
		{"SortMergeJoinExec", "%[1]s.k = %[2]s.k", true},
	}
	queries := []string{
		"SELECT b.k, b.v, p.k, p.v FROM b JOIN p ON {b,p}",
		"SELECT b.k, b.v, p.k, p.v FROM b LEFT JOIN p ON {b,p}",
		"SELECT b.k, b.v, p.k, p.v FROM b RIGHT JOIN p ON {b,p}",
		"SELECT b.k, b.v, p.k, p.v FROM b FULL JOIN p ON {b,p}",
		"SELECT b.k, b.v, p.k, p.v FROM b LEFT JOIN p ON {b,p} AND b.v < p.v",
		"SELECT b.k, b.v, p.k, p.v FROM b RIGHT JOIN p ON {b,p} AND b.v > p.v",
		"SELECT b.k, b.v, p.k, p.v FROM b FULL JOIN p ON {b,p} AND b.v < p.v",
		"SELECT b.v, p.v FROM b CROSS JOIN p WHERE {b,p}",
		"SELECT k, v FROM b WHERE EXISTS (SELECT 1 FROM p WHERE {p,b})",
		"SELECT k, v FROM p WHERE EXISTS (SELECT 1 FROM b WHERE {b,p})",
		"SELECT k, v FROM b WHERE NOT EXISTS (SELECT 1 FROM p WHERE {p,b})",
		"SELECT k, v FROM p WHERE NOT EXISTS (SELECT 1 FROM b WHERE {b,p})",
		"SELECT b.v, p.v FROM b CROSS JOIN p",
	}
	for _, j := range joins {
		seen := map[string]bool{}
		for _, c := range cases {
			for _, parts := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/p%d", j.op, c.name, parts), func(t *testing.T) {
					s := core.NewSession(core.SessionConfig{TargetPartitions: parts, BatchRows: batchRows})
					be := baseline.New(2)
					for _, tb := range []keyTable{{"b", arrow.Int64, c.b}, {"p", arrow.Int64, c.p}} {
						if j.sorted {
							tb.registerSorted(t, s, be)
						} else {
							tb.register(t, s, be)
						}
					}
					for _, q := range queries {
						for _, xy := range [][2]string{{"b", "p"}, {"p", "b"}} {
							q = strings.ReplaceAll(q, "{"+xy[0]+","+xy[1]+"}", fmt.Sprintf(j.on, xy[0], xy[1]))
						}
						batches, plan := runJoin(t, s, be, q)
						for _, b := range batches {
							if b.NumRows() > batchRows {
								t.Fatalf("%q: a %d-row batch, cap %d", q, b.NumRows(), batchRows)
							}
						}
						joinsRun(plan, seen)
					}
				})
			}
		}
		for _, jt := range []string{"Inner", "Left", "Right", "Full", "LeftSemi", "RightSemi", "LeftAnti", "RightAnti"} {
			if !seen[j.op+"/"+jt] {
				t.Errorf("no query ran a %s %s join (ran %v)", jt, j.op, seen)
			}
		}
	}
}

// TestMergeJoinOrdering: a merge join keeps its left input's key order only
// where it emits rows in that order. An inner join's ORDER BY on the key
// is dropped; a left or right join appends rows out of key order, so its
// ORDER BY stays and the rows come back sorted.
func TestMergeJoinOrdering(t *testing.T) {
	for _, parts := range []int{1, 2} {
		s := core.NewSession(core.SessionConfig{TargetPartitions: parts})
		be := baseline.New(1)
		mk := func(name string, keys ...int64) {
			schema := arrow.NewSchema(arrow.NewField(name+"k", arrow.Int64, false), arrow.NewField(name+"v", arrow.Int64, false))
			vals := make([]int64, len(keys))
			for i, k := range keys {
				vals[i] = 10 * k
			}
			b := arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewInt64(keys), arrow.NewInt64(vals)})
			mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{b}})
			if err != nil {
				t.Fatal(err)
			}
			s.RegisterTable(name, mt.WithSortOrder([]catalog.OrderedCol{{Name: name + "k"}}))
			be.RegisterBatches(name, schema, []*arrow.RecordBatch{b})
		}
		mk("l", 1, 2, 3, 4)
		mk("r", 0, 2, 4, 6)
		for _, c := range []struct {
			q    string
			sort bool
		}{
			{"SELECT lk, rv FROM l JOIN r ON lk = rk ORDER BY lk", false},
			{"SELECT lk, rv FROM l LEFT JOIN r ON lk = rk ORDER BY lk", true},
			{"SELECT lk, rv FROM l RIGHT JOIN r ON lk = rk ORDER BY lk", true},
			{"SELECT rk, lv FROM l RIGHT JOIN r ON lk = rk ORDER BY rk", true},
		} {
			df, err := s.SQL(c.q)
			if err != nil {
				t.Fatal(err)
			}
			batches, qm, err := df.CollectWithMetrics()
			if err != nil {
				t.Fatal(err)
			}
			got, err := compute.ConcatBatches(df.Schema().ToArrow(), batches)
			if err != nil {
				t.Fatal(err)
			}
			want, err := be.Query(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if diff := testutil.DiffOrdered(got, want); diff != "" {
				t.Errorf("p%d %q: rows out of order:\n%s", parts, c.q, diff)
			}
			plan := exec.ExplainPhysical(qm.Plan)
			if !strings.Contains(plan, "SortMergeJoinExec") || strings.Contains(plan, "SortExec") != c.sort {
				t.Errorf("p%d %q: want a merge join and sort=%v:\n%s", parts, c.q, c.sort, plan)
			}
		}
	}
}
