package serverload

import (
	"fmt"
	"math/rand"

	"gofusion/internal/core"
	"gofusion/internal/fuzzsql"
	"gofusion/internal/workload/clickbench"
	"gofusion/internal/workload/tpch"
)

// Workload is a seeded, deterministic traffic mix: TPC-H analytic
// queries, ClickBench aggregations, and a fuzzsql-generated corpus, all
// over datasets small enough that thousands of requests finish in
// seconds. The same seed always yields the same query pool, so load-test
// failures replay exactly.
type Workload struct {
	Seed    int64
	Queries []string

	tpchSF float64
	cbRows int
	fuzz   *fuzzsql.Dataset
}

// tpchLoadQueries are the TPC-H queries in the mix: scan-, join-, and
// aggregation-heavy shapes that stay fast at tiny scale factors.
var tpchLoadQueries = []int{1, 3, 5, 6, 10, 12, 14, 19}

// clickbenchLoadQueries are the ClickBench queries in the mix.
var clickbenchLoadQueries = []int{1, 2, 3, 7, 8, 13, 16, 21}

// NewWorkload builds the query pool: the fixed TPC-H and ClickBench
// subsets plus fuzzCount seeded fuzzsql queries.
func NewWorkload(seed int64, fuzzCount int) (*Workload, error) {
	w := &Workload{Seed: seed, tpchSF: 0.01, cbRows: 2000, fuzz: fuzzsql.NewDataset(seed)}
	for _, n := range tpchLoadQueries {
		q, err := tpch.Query(n)
		if err != nil {
			return nil, err
		}
		w.Queries = append(w.Queries, q)
	}
	cb := clickbench.Queries()
	for _, n := range clickbenchLoadQueries {
		q, ok := cb[n]
		if !ok {
			return nil, fmt.Errorf("serverload: unknown clickbench query %d", n)
		}
		w.Queries = append(w.Queries, q)
	}
	gen := fuzzsql.NewGen(seed, w.fuzz)
	gen.Pinned = true // see Gen.Pinned
	for i := 0; i < fuzzCount; i++ {
		w.Queries = append(w.Queries, gen.Query().SQL())
	}
	return w, nil
}

// Register loads every dataset of the mix into a session: TPC-H (in
// memory at the workload's scale factor), ClickBench hits, and the
// fuzzsql tables.
func (w *Workload) Register(s *core.SessionContext) error {
	if err := tpch.RegisterInMemory(s, w.tpchSF); err != nil {
		return err
	}
	if err := clickbench.RegisterInMemory(s, w.cbRows); err != nil {
		return err
	}
	for _, t := range w.fuzz.Tables {
		if err := s.RegisterBatches(t.Name, t.Schema, t.Batches); err != nil {
			return err
		}
	}
	return nil
}

// Pick returns a deterministic query for one client step.
func (w *Workload) Pick(rng *rand.Rand) string {
	return w.Queries[rng.Intn(len(w.Queries))]
}
