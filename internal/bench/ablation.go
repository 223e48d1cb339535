package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
	"gofusion/internal/rowformat"
	"gofusion/internal/workload/tpch"
)

// tpchSchema fetches a TPC-H table schema.
func tpchSchema(name string) (*arrow.Schema, error) {
	return tpch.Schema(name)
}

// Ablation is one design-choice measurement: the optimization on vs off.
type Ablation struct {
	Name string
	On   time.Duration
	Off  time.Duration
	Note string
}

// Speedup renders On-vs-Off.
func (a Ablation) Speedup() string {
	if a.On == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", a.Off.Seconds()/a.On.Seconds())
}

// RunAblations measures the DESIGN.md design-choice ablations.
func (c Config) RunAblations() ([]Ablation, error) {
	var out []Ablation
	a1, err := c.ablatePruning()
	if err != nil {
		return nil, err
	}
	out = append(out, a1...)
	out = append(out, ablateRowFormatSort())
	a3, err := ablateOrderedAggregation()
	if err != nil {
		return nil, err
	}
	out = append(out, a3)
	a4, err := c.ablateTopK()
	if err != nil {
		return nil, err
	}
	out = append(out, a4)
	return out, nil
}

// scanFiles scans GPQ files with the given options three times and
// returns the best duration (and rows matched).
func scanFiles(files []string, opts parquet.ScanOptions) (time.Duration, int64, error) {
	best := time.Duration(0)
	var rows int64
	for i := 0; i < 3; i++ {
		d, r, err := scanFilesOnce(files, opts)
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || d < best {
			best, rows = d, r
		}
	}
	return best, rows, nil
}

func scanFilesOnce(files []string, opts parquet.ScanOptions) (time.Duration, int64, error) {
	sort.Strings(files)
	start := time.Now()
	var rows int64
	for _, f := range files {
		fr, err := parquet.OpenFile(f)
		if err != nil {
			return 0, 0, err
		}
		sc, err := fr.Scan(opts)
		if err != nil {
			fr.Close()
			return 0, 0, err
		}
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fr.Close()
				return 0, 0, err
			}
			rows += int64(b.NumRows())
		}
		fr.Close()
	}
	return time.Since(start), rows, nil
}

// lineitemPredicate compiles a narrow l_orderkey range: l_orderkey grows
// with row order, so row-group and page statistics prune almost all of
// the file — the paper's best case for §6.8.
func lineitemPredicate() (parquet.Predicate, []int, error) {
	schema, err := tpchSchema("lineitem")
	if err != nil {
		return nil, nil, err
	}
	key := schema.FieldIndex("l_orderkey")
	comment := schema.FieldIndex("l_comment")
	filters := []logical.Expr{
		&logical.Between{E: logical.Col("l_orderkey"),
			Low: logical.Lit(int64(1000)), High: logical.Lit(int64(2000))},
	}
	pred, exact := catalog.CompileFilters(filters, schema)
	for _, e := range exact {
		if !e {
			return nil, nil, fmt.Errorf("bench: ablation predicate not compiled")
		}
	}
	return pred, []int{key, comment}, nil
}

func (c Config) ablatePruning() ([]Ablation, error) {
	pred, projection, err := lineitemPredicate()
	if err != nil {
		return nil, err
	}
	files := []string{filepath.Join(c.tpchDir(), "lineitem.gpq")}
	base := parquet.ScanOptions{Projection: projection, Predicate: pred}

	on, _, err := scanFiles(files, base)
	if err != nil {
		return nil, err
	}
	noPrune := base
	noPrune.DisablePruning = true
	offPrune, _, err := scanFiles(files, noPrune)
	if err != nil {
		return nil, err
	}
	noLate := base
	noLate.DisableLateMaterialization = true
	offLate, _, err := scanFiles(files, noLate)
	if err != nil {
		return nil, err
	}
	return []Ablation{
		{Name: "parquet statistics pruning", On: on, Off: offPrune,
			Note: "row-group/page stats pruning on a selective predicate (§6.8)"},
		{Name: "late materialization", On: offPrune, Off: offLate,
			Note: "decode-after-filter vs decode-everything, pruning disabled for both (§6.8)"},
	}, nil
}

// ablateRowFormatSort compares multi-column sorting with normalized keys
// (memcmp) against the generic boxed comparator (§6.6).
func ablateRowFormatSort() Ablation {
	const n = 200_000
	rng := rand.New(rand.NewSource(3))
	ib := arrow.NewNumericBuilder[int64](arrow.Int64)
	sb := arrow.NewStringBuilder(arrow.String)
	fb := arrow.NewNumericBuilder[float64](arrow.Float64)
	for i := 0; i < n; i++ {
		ib.Append(int64(rng.Intn(1000)))
		sb.Append(fmt.Sprintf("key-%06d", rng.Intn(5000)))
		fb.Append(rng.Float64())
	}
	cols := []arrow.Array{ib.Finish(), sb.Finish(), fb.Finish()}

	start := time.Now()
	enc, _ := rowformat.NewEncoder([]*arrow.DataType{arrow.Int64, arrow.String, arrow.Float64}, nil)
	keys := enc.EncodeRows(cols, n)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0 })
	withRF := time.Since(start)

	start = time.Now()
	compute.SortToIndices(cols, []compute.SortKey{{Col: 0}, {Col: 1}, {Col: 2}}, n)
	generic := time.Since(start)

	return Ablation{Name: "normalized-key (RowFormat) sort", On: withRF, Off: generic,
		Note: "memcmp keys vs boxed per-column comparator, 200k rows x 3 cols (§6.6)"}
}

// ablateOrderedAggregation compares streaming aggregation over sorted
// input against hash aggregation of the same data (§6.7).
func ablateOrderedAggregation() (Ablation, error) {
	const n = 1_000_000
	const groups = 10_000
	kb := arrow.NewNumericBuilder[int64](arrow.Int64)
	vb := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < n; i++ {
		kb.Append(int64(i / (n / groups)))
		vb.Append(int64(i))
	}
	schema := arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, false),
	)
	batch := arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()})

	run := func(declareSorted bool) (time.Duration, error) {
		s := core.NewSession(core.DefaultConfig())
		mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{{batch}})
		if err != nil {
			return 0, err
		}
		if declareSorted {
			mt.WithSortOrder([]catalog.OrderedCol{{Name: "k"}})
		}
		s.RegisterTable("t", mt)
		start := time.Now()
		d, _, err := RunGoFusion(s, "SELECT k, sum(v), count(*) FROM t GROUP BY k")
		_ = start
		return d, err
	}
	sorted, err := run(true)
	if err != nil {
		return Ablation{}, err
	}
	hashed, err := run(false)
	if err != nil {
		return Ablation{}, err
	}
	return Ablation{Name: "sort-order-aware (streaming) aggregation", On: sorted, Off: hashed,
		Note: "group-by over input with a declared sort order vs hash aggregation (§6.7)"}, nil
}

// ablateTopK compares the Top-K operator against a full sort for
// ORDER BY ... LIMIT (§6.2).
func (c Config) ablateTopK() (Ablation, error) {
	s, err := c.GoFusionSession(ClickBench, 1)
	if err != nil {
		return Ablation{}, err
	}
	// With LIMIT the planner selects TopKExec: only 10 wide rows are ever
	// materialized.
	topk, _, err := RunGoFusion(s, "SELECT * FROM hits ORDER BY EventTime LIMIT 10")
	if err != nil {
		return Ablation{}, err
	}
	// Without LIMIT the same ordering fully sorts (and gathers) every
	// column; counting afterwards keeps the client-side output small.
	full, _, err := RunGoFusion(s, "SELECT count(*) FROM (SELECT * FROM hits ORDER BY EventTime) q")
	if err != nil {
		return Ablation{}, err
	}
	return Ablation{Name: "Top-K sort", On: topk, Off: full,
		Note: "bounded-heap Top-K vs full sort (all columns) under ORDER BY ... LIMIT 10 (§6.2)"}, nil
}
