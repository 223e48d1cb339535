// Differential aggregation test: randomized inputs are grouped through the
// hash-first group table (every HashAggregateExec configuration: single and
// two-phase, forced spill, forced partial early-flush, and both sides of the
// adaptive partial aggregate's pass-through switch) and must match
// gofusion's independent baseline engine (internal/baseline) exactly.
// External test package because baseline itself links against exec's
// sibling packages.
package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/exec"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/optimizer"
	"gofusion/internal/physical"
	"gofusion/internal/planner"
	"gofusion/internal/sql"
	"gofusion/internal/testutil"
)

var diffReg = functions.NewRegistry()

// diffKeyName renders key id as a string key: empty strings, embedded NULs
// and plain names.
func diffKeyName(id int) string {
	switch {
	case id%97 == 0:
		return ""
	case id%11 == 1:
		return fmt.Sprintf("k\x00%d", id)
	}
	return fmt.Sprintf("key-%d", id)
}

// diffKeyFloat renders key id as a float key and the part of d it adds:
// every seventh id is a zero of random sign and every eleventh a NaN with
// random sign and payload — one key each, however the bits differ.
func diffKeyFloat(rng *rand.Rand, id int) (float64, int64) {
	sign := uint64(rng.Intn(2)) << 63
	switch {
	case id%7 == 0:
		return math.Float64frombits(sign), 17
	case id%11 == 0:
		return math.Float64frombits(sign | 0x7FF8000000000000 | uint64(rng.Intn(1000))), 19
	}
	return float64(id)/4 + 0.125, int64(id) * 13
}

// diffRows builds n rows of the schema's columns, among k_int / k_str /
// k_flt / k_bin (nullable keys drawn from key ids nextID hands out), v and w (nullable
// int64 payloads, loosely correlated) and d (a non-null int64 that is a
// function of the row's key cells alone, so first_value/last_value over a
// group do not depend on row order).
func diffRows(rng *rand.Rand, schema *arrow.Schema, n int, nextID func() int) *arrow.RecordBatch {
	kInt := arrow.NewNumericBuilder[int64](arrow.Int64)
	kStr := arrow.NewStringBuilder(arrow.String)
	kFlt := arrow.NewNumericBuilder[float64](arrow.Float64)
	kBin := arrow.NewStringBuilder(arrow.Binary)
	v := arrow.NewNumericBuilder[int64](arrow.Int64)
	w := arrow.NewNumericBuilder[int64](arrow.Int64)
	d := arrow.NewNumericBuilder[int64](arrow.Int64)
	hasInt, hasStr := schema.FieldIndex("k_int") >= 0, schema.FieldIndex("k_str") >= 0
	hasFlt, hasBin := schema.FieldIndex("k_flt") >= 0, schema.FieldIndex("k_bin") >= 0
	for i := 0; i < n; i++ {
		id := nextID()
		var dv int64
		if hasInt {
			if rng.Intn(64) == 0 {
				kInt.AppendNull()
				dv += 3
			} else {
				kInt.Append(int64(id) - 20)
				dv += int64(id) * 7
			}
		}
		if hasStr {
			if rng.Intn(64) == 0 {
				kStr.AppendNull()
				dv += 5
			} else {
				s := diffKeyName(id)
				kStr.Append(s)
				dv += int64(len(s)) * 1000
			}
		}
		if hasFlt {
			f, fdv := diffKeyFloat(rng, id)
			if rng.Intn(64) == 0 {
				kFlt.AppendNull()
				fdv = 7
			} else {
				kFlt.Append(f)
			}
			dv += fdv
		}
		if hasBin {
			if rng.Intn(64) == 0 {
				kBin.AppendNull()
				dv += 9
			} else {
				b := []byte(diffKeyName(id + 1))
				kBin.AppendBytes(b)
				dv += int64(len(b)) * 100_000
			}
		}
		d.Append(dv)
		val := int64(rng.Intn(2000)) - 1000
		if rng.Intn(10) == 0 {
			v.AppendNull()
		} else {
			v.Append(val)
		}
		if rng.Intn(12) == 0 {
			w.AppendNull()
		} else {
			w.Append(val*2 + int64(rng.Intn(50)))
		}
	}
	built := map[string]arrow.Array{"k_int": kInt.Finish(), "k_str": kStr.Finish(), "k_flt": kFlt.Finish(),
		"k_bin": kBin.Finish(), "v": v.Finish(), "w": w.Finish(), "d": d.Finish()}
	cols := make([]arrow.Array, schema.NumFields())
	for i, f := range schema.Fields() {
		cols[i] = built[f.Name]
	}
	return arrow.NewRecordBatch(schema, cols)
}

// diffSlices cuts b into randomly sized slices of at most maxRows rows, so
// operators see arrays with non-zero offsets into shared buffers.
func diffSlices(rng *rand.Rand, b *arrow.RecordBatch, maxRows int) []*arrow.RecordBatch {
	var out []*arrow.RecordBatch
	for off := 0; off < b.NumRows(); {
		n := min(1+rng.Intn(maxRows), b.NumRows()-off)
		out = append(out, b.Slice(off, n))
		off += n
	}
	return out
}

// diffInput is one table: its rows, how they are laid out over partitions,
// and what a partial aggregate over its first partition must do.
type diffInput struct {
	name   string
	fields []string
	// rows generates the table: head goes to partition 0, tail is dealt over
	// the other partitions (all of it to partition 0 when there is one).
	rows func(rng *rand.Rand, schema *arrow.Schema) (head, tail []*arrow.RecordBatch)
	// passThrough says whether a two-phase plan's partial aggregate must
	// (+1), must not (-1) or may (0) have switched to pass-through.
	passThrough int
}

// shortRows is 12 batches of up to 600 rows over 40 key ids, all in one
// partition (a round-robin exchange deals it out at parts > 1): far below
// the probe window, heavy duplication.
func shortRows(rng *rand.Rand, schema *arrow.Schema) (head, tail []*arrow.RecordBatch) {
	for b := 0; b < 12; b++ {
		head = append(head, diffRows(rng, schema, 1+rng.Intn(600), func() int { return rng.Intn(40) }))
	}
	return head, nil
}

// longRows puts more rows than the partial aggregate's probe window in the
// head — every distinctOneIn-th row a new key id on average (1 = all
// distinct) — and a short tail over the same ids, so one query has a
// partial aggregate that crosses the window beside ones that never reach
// it. Batches are slices of larger arrays.
func longRows(distinctOneIn int) func(*rand.Rand, *arrow.Schema) (head, tail []*arrow.RecordBatch) {
	return func(rng *rand.Rand, schema *arrow.Schema) (head, tail []*arrow.RecordBatch) {
		n := exec.PartialProbeRows + 10_000
		seq := 0
		nextID := func() int {
			if distinctOneIn == 1 {
				seq++
				return seq
			}
			return rng.Intn(n / distinctOneIn)
		}
		head = diffSlices(rng, diffRows(rng, schema, n, nextID), 9000)
		tail = diffSlices(rng, diffRows(rng, schema, 3000, func() int { return rng.Intn(n / distinctOneIn) }), 500)
		return head, tail
	}
}

// layout places the input's batches in parts partitions; a short input
// stays in one partition whatever parts is.
func (in diffInput) layout(head, tail []*arrow.RecordBatch, parts int) [][]*arrow.RecordBatch {
	if len(tail) == 0 || parts == 1 {
		return [][]*arrow.RecordBatch{append(head[:len(head):len(head)], tail...)}
	}
	out := make([][]*arrow.RecordBatch, parts)
	out[0] = head
	for i, b := range tail {
		out[1+i%(parts-1)] = append(out[1+i%(parts-1)], b)
	}
	return out
}

var diffInputs = []diffInput{
	{"int", []string{"k_int"}, shortRows, -1},            // single int64 key: primitive fast path
	{"str", []string{"k_str"}, shortRows, -1},            // single string key: candidate-pair path
	{"mixed", []string{"k_int", "k_str"}, shortRows, -1}, // multi-column keys: candidate-pair path
	{"float", []string{"k_flt"}, shortRows, -1},          // ±0 and NaN payloads are one key each
	{"binary-float", []string{"k_bin", "k_flt", "k_int"}, shortRows, -1},
	{"long-all-distinct", []string{"k_str", "k_int"}, longRows(1), +1},
	{"long-half-distinct", []string{"k_str", "k_int"}, longRows(2), 0},
	{"long-1pct-distinct", []string{"k_str", "k_int"}, longRows(100), -1},
}

// diffQueries are the statements run over every input; %s is the group key
// list. Together they cover every registered aggregate family, aggregates
// with FILTER, DISTINCT plans with no aggregates, and count(DISTINCT) both
// as the count_distinct accumulator ("all") and as the nested group-by a
// lone one plans to ("sole-distinct").
var diffQueries = []struct {
	name, sql string
	// groupsByValue marks a plan whose first partial aggregate groups by
	// (keys, v): 2000 values of v make nearly every row of a long input its
	// own group, however few keys there are.
	groupsByValue bool
}{
	{name: "basic", sql: "SELECT %[1]s, sum(v), count(*), min(v), max(v), avg(v) FROM t GROUP BY %[1]s"},
	{name: "all", sql: "SELECT %[1]s, count(v), median(v), stddev(v), var_pop(w), corr(v, w), count(DISTINCT v), " +
		"first_value(d), last_value(d), min(k_fn), " +
		"sum(v) FILTER (WHERE v > 0), count(*) FILTER (WHERE w IS NOT NULL), avg(w) FILTER (WHERE v < -990) " +
		"FROM t GROUP BY %[1]s"},
	// Expression arguments evaluate into the operator's scratch, which the
	// next batch overwrites (with poison first under the sanitize tag).
	{name: "expr-args", sql: "SELECT %[1]s, sum(v + 1), min(w * 2), max(v - w), avg(w - 3), count(v + w), " +
		"sum(v * 2) FILTER (WHERE w - v > 0) FROM t GROUP BY %[1]s"},
	{name: "distinct", sql: "SELECT DISTINCT %[1]s FROM t"},
	{name: "sole-distinct", sql: "SELECT %[1]s, count(DISTINCT v) FROM t GROUP BY %[1]s", groupsByValue: true},
}

// lowerSQL plans sqlText over the named tables at the given parallelism.
func lowerSQL(t *testing.T, sqlText string, tables map[string]catalog.TableProvider, parts int) physical.ExecutionPlan {
	t.Helper()
	return lowerSQLBatchRows(t, sqlText, tables, parts, 0)
}

// lowerSQLBatchRows is lowerSQL with the planner's batch size set (0: the
// default).
func lowerSQLBatchRows(t *testing.T, sqlText string, tables map[string]catalog.TableProvider, parts, batchRows int) physical.ExecutionPlan {
	t.Helper()
	pp, err := exec.CreatePhysicalPlan(optimizeSQL(t, sqlText, tables), &exec.PlannerConfig{TargetPartitions: parts, Reg: diffReg, BatchRows: batchRows})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return pp
}

// optimizeSQL plans and optimizes sqlText over the named tables.
func optimizeSQL(t *testing.T, sqlText string, tables map[string]catalog.TableProvider) logical.Plan {
	t.Helper()
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		t.Fatalf("parse %s: %v", sqlText, err)
	}
	resolve := func(name string) (logical.TableSource, error) {
		if table, ok := tables[strings.ToLower(name)]; ok {
			return table, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	plan, err := planner.New(resolve, diffReg).PlanQuery(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("plan %s: %v", sqlText, err)
	}
	if plan, err = optimizer.New(diffReg).Optimize(plan); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return plan
}

func TestAggDifferentialAgainstBaseline(t *testing.T) {
	for _, in := range diffInputs {
		t.Run(in.name, func(t *testing.T) {
			fields := []arrow.Field{}
			for _, k := range in.fields {
				typ := map[string]*arrow.DataType{"k_int": arrow.Int64, "k_str": arrow.String, "k_flt": arrow.Float64, "k_bin": arrow.Binary}[k]
				fields = append(fields, arrow.NewField(k, typ, true))
			}
			fields = append(fields, arrow.NewField("v", arrow.Int64, true),
				arrow.NewField("w", arrow.Int64, true), arrow.NewField("d", arrow.Int64, false))
			schema := arrow.NewSchema(fields...)
			head, tail := in.rows(rand.New(rand.NewSource(int64(len(in.name))*997)), schema)

			// Reference: the independent baseline engine over the same rows.
			be := baseline.New(2)
			be.RegisterBatches("t", schema, append(head[:len(head):len(head)], tail...))
			texts := make([]string, len(diffQueries))
			want := make([][]testutil.Row, len(diffQueries))
			for i, q := range diffQueries {
				// k_fn stands for the first key column, so min() keeps
				// string state when that key is the string. Over the float
				// key it would answer -0 or +0 by row order, so it takes v.
				fn := in.fields[0]
				if fn == "k_flt" || fn == "k_bin" {
					fn = "v"
				}
				texts[i] = strings.ReplaceAll(fmt.Sprintf(q.sql, strings.Join(in.fields, ", ")), "k_fn", fn)
				ref, err := be.Query(texts[i])
				if err != nil {
					t.Fatalf("%s: baseline: %v", q.name, err)
				}
				want[i] = testutil.NormalizeBatch(ref)
			}

			configs := []struct {
				name   string
				parts  int
				starve bool
			}{
				{"single-partition", 1, false},
				{"three-partitions", 3, false},
				{"four-partitions", 4, false},
				// A pool below any table's footprint: the partial side flushes
				// after each batch, the final side spills after each batch.
				{"forced-spill", 3, true},
			}
			for _, cfg := range configs {
				mt, err := catalog.NewMemTable(schema, in.layout(head, tail, cfg.parts))
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range diffQueries {
					name := cfg.name + "/" + q.name
					pp := lowerSQL(t, texts[i], map[string]catalog.TableProvider{"t": mt}, cfg.parts)
					ctx := physical.NewExecContext()
					if cfg.starve {
						dm := memory.NewDiskManager(t.TempDir())
						t.Cleanup(func() { dm.Close() })
						ctx.Pool = memory.NewGreedyPool(512)
						ctx.Disk = dm
					}
					got, err := exec.CollectBatch(ctx, pp)
					if err != nil {
						t.Fatalf("%s: exec: %v", name, err)
					}
					if diff := testutil.Diff(testutil.NormalizeBatch(got), want[i]); diff != "" {
						t.Fatalf("%s: engines disagree with baseline:\n%s", name, diff)
					}
					if err := exec.CheckPlanMetrics(pp, int64(got.NumRows())); err != nil {
						t.Errorf("%s: %v", name, err)
					}

					passed, twoPhase := exec.PartialAggMetric(pp, "passthrough_rows")
					if twoPhase != (cfg.parts > 1) {
						t.Fatalf("%s: partial aggregate in plan = %v at %d partitions:\n%s",
							name, twoPhase, cfg.parts, exec.ExplainPhysical(pp))
					}
					if !twoPhase {
						continue
					}
					wantPass := in.passThrough
					if q.groupsByValue && len(tail) > 0 {
						wantPass = +1
					}
					switch {
					case wantPass > 0 && passed == 0:
						t.Errorf("%s: the partial aggregate never switched to pass-through", name)
					case wantPass < 0 && passed != 0:
						t.Errorf("%s: the partial aggregate passed %d rows through", name, passed)
					}
					if flushes, _ := exec.PartialAggMetric(pp, "early_flushes"); (flushes > 0) != cfg.starve {
						t.Errorf("%s: early_flushes = %d", name, flushes)
					}
				}
			}
		})
	}
}
