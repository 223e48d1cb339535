package tpch_test

import (
	"fmt"
	"reflect"
	"testing"

	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/optimizer"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
	"gofusion/internal/workload/tpch"
)

// TestProjectionPushdownPreservesResults runs the 22 queries with and
// without the projection pushdown pass, at one and four partitions: the
// rows must not change. TightDB shares the pass, so only this A/B checks
// it.
func TestProjectionPushdownPreservesResults(t *testing.T) {
	for _, parts := range []int{1, 4} {
		cfg := core.SessionConfig{TargetPartitions: parts}
		on := core.NewSession(cfg)
		off := core.NewSession(cfg).WithoutOptimizerRules((&optimizer.ProjectionPushdown{}).Name())
		for _, s := range []*core.SessionContext{on, off} {
			if err := tpch.RegisterInMemory(s, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		for n := 1; n <= 22; n++ {
			q, err := tpch.Query(n)
			if err != nil {
				t.Fatal(err)
			}
			if diff := testutil.DiffBatches(collectQuery(t, on, q), collectQuery(t, off, q)); diff != "" {
				t.Fatalf("Q%d p%d: projection pushdown changes the result:\n%s", n, parts, diff)
			}
		}
	}
}

// TestJoinOutputsAreRead checks the 22 plans at -p 4: no hash join emits a
// column that nothing above it reads, and no bare-column projection sits
// directly on a hash join (it folds into the join). At -p 2, q9's probes
// of lineitem run as stages of one fused segment.
func TestJoinOutputsAreRead(t *testing.T) {
	for _, parts := range []int{2, 4} {
		s := core.NewSession(core.SessionConfig{TargetPartitions: parts})
		if err := tpch.RegisterInMemory(s, 0.01); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 22; n++ {
			if parts == 2 && n != 9 {
				continue
			}
			q, err := tpch.Query(n)
			if err != nil {
				t.Fatal(err)
			}
			df, err := s.SQL(q)
			if err != nil {
				t.Fatal(err)
			}
			_, qm, err := df.CollectWithMetrics()
			if err != nil {
				t.Fatalf("Q%d: %v", n, err)
			}
			for _, v := range unreadJoinOutputs(qm.Plan) {
				t.Errorf("Q%d p%d: %s\n%s", n, parts, v, exec.ExplainPhysical(qm.Plan))
			}
			if n == 9 && maxFusedProbes(qm.Plan) < 3 {
				t.Errorf("Q9 p%d: fewer than three probes fused into one segment:\n%s", parts, exec.ExplainPhysical(qm.Plan))
			}
		}
	}
}

// mark sets the input columns the expressions read: every ColumnExpr
// reachable from them, found by walking their fields (expression nodes
// keep their children in fields of many shapes).
func mark(read []bool, exprs ...physical.PhysicalExpr) []bool {
	colType := reflect.TypeOf(&physical.ColumnExpr{})
	seen := map[uintptr]bool{}
	var visit func(v reflect.Value)
	visit = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == colType {
				read[v.Elem().FieldByName("Index").Int()] = true
				return
			}
			visit(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				visit(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				visit(v.Index(i))
			}
		}
	}
	for _, e := range exprs {
		visit(reflect.ValueOf(e))
	}
	return read
}

func readAll(p physical.ExecutionPlan) []bool {
	read := make([]bool, p.Schema().NumFields())
	for i := range read {
		read[i] = true
	}
	return read
}

// passRead extends the columns read above a schema-preserving operator
// with those it reads itself.
func passRead(p physical.ExecutionPlan, read []bool, exprs ...physical.PhysicalExpr) []bool {
	if read == nil {
		return nil
	}
	return mark(append([]bool(nil), read...), exprs...)
}

// unreadJoinOutputs walks the plan top-down tracking which output columns
// of each operator its parent reads (nil: all), and reports each hash join
// column nobody reads and each bare-column projection over a join.
func unreadJoinOutputs(plan physical.ExecutionPlan) []string {
	var out []string
	var walk func(p physical.ExecutionPlan, read []bool)
	walk = func(p physical.ExecutionPlan, read []bool) {
		switch n := p.(type) {
		case *exec.PipelineExec:
			walk(n.Children()[0], read)
		case *exec.ProjectionExec:
			in := make([]bool, n.Input.Schema().NumFields())
			bare := true
			for i, e := range n.Exprs {
				_, col := e.(*physical.ColumnExpr)
				bare = bare && col
				if read == nil || read[i] {
					mark(in, e)
				}
			}
			if _, join := n.Input.(*exec.HashJoinExec); join && bare {
				out = append(out, "bare-column ProjectionExec over HashJoinExec: "+n.String())
			}
			walk(n.Input, in)
		case *exec.FilterExec:
			walk(n.Input, passRead(n, read, n.Predicate))
		case *exec.CoalescePartitionsExec:
			walk(n.Input, read)
		case *exec.GlobalLimitExec:
			walk(n.Input, read)
		case *exec.LocalLimitExec:
			walk(n.Input, read)
		case *exec.RepartitionExec:
			walk(n.Input, passRead(n, read, n.HashExprs...))
		case *exec.ExternalSortExec:
			walk(n.Input, passRead(n, read, sortExprs(n.Keys)...))
		case *exec.TopKExec:
			walk(n.Input, passRead(n, read, sortExprs(n.Keys)...))
		case *exec.SortPreservingMergeExec:
			walk(n.Input, passRead(n, read, sortExprs(n.Keys)...))
		case *exec.HashAggregateExec:
			if n.Mode == exec.FinalAgg {
				walk(n.Input, nil) // partial states
				return
			}
			in := mark(make([]bool, n.Input.Schema().NumFields()), n.GroupExprs...)
			for _, a := range n.Aggs {
				mark(in, append(a.Args, a.Filter)...)
			}
			walk(n.Input, in)
		case *exec.HashJoinExec:
			for i := range n.Schema().Fields() {
				if read != nil && !read[i] {
					out = append(out, fmt.Sprintf("%s emits column %d (%s) nothing above reads",
						n.String(), i, n.Schema().Field(i).Name))
				}
			}
			lw := n.Left.Schema().NumFields()
			left, right := make([]bool, lw), make([]bool, n.Right.Schema().NumFields())
			for _, on := range n.On {
				mark(left, on.L)
				mark(right, on.R)
			}
			if n.Filter != nil {
				for _, c := range n.Filter.Columns {
					if c < lw {
						left[c] = true
					} else {
						right[c-lw] = true
					}
				}
			}
			for i := range n.Schema().Fields() {
				c := i
				if n.Projection != nil {
					c = n.Projection[i]
				}
				switch {
				case n.Type == logical.RightSemiJoin || n.Type == logical.RightAntiJoin:
					right[c] = true
				case c < lw:
					left[c] = true
				default:
					right[c-lw] = true
				}
			}
			walk(n.Left, left)
			walk(n.Right, right)
		default:
			for _, c := range p.Children() {
				walk(c, readAll(c))
			}
		}
	}
	walk(plan, nil)
	return out
}

func sortExprs(keys []exec.SortSpec) []physical.PhysicalExpr {
	out := make([]physical.PhysicalExpr, len(keys))
	for i, k := range keys {
		out[i] = k.Expr
	}
	return out
}

// maxFusedProbes is the most hash join stages any one fused segment runs.
func maxFusedProbes(p physical.ExecutionPlan) int {
	best := 0
	if seg, ok := p.(*exec.PipelineExec); ok {
		for _, st := range seg.Stages {
			if _, join := st.(*exec.HashJoinExec); join {
				best++
			}
		}
	}
	for _, c := range p.Children() {
		best = max(best, maxFusedProbes(c))
	}
	return best
}
