// Package baseline implements TightDB, the tightly-integrated comparator
// engine standing in for DuckDB in the paper's evaluation (Section 8). It
// shares only the columnar memory substrate (arrow), the SQL front end and
// the logical optimizer, less join ordering, with the main engine; its
// execution layer is its own:
//
//   - eager, fully-materialized scans: file formats are decoded page-by-
//     page without predicate pushdown, pruning, or late materialization
//     (predicates run after decoding), mirroring the paper's observation
//     that DuckDB lacked parquet predicate pushdown;
//   - morsel-parallel operators over materialized batch vectors instead of
//     pull-based partitioned streams;
//   - radix-partitioned parallel hash aggregation with fixed-width key
//     fast paths, optimized for very high group cardinalities (the regime
//     where the paper's analysis has DuckDB ahead);
//   - a row-at-a-time CSV decode path (the paper has DataFusion ahead on
//     CSV parsing).
package baseline

import (
	"fmt"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/optimizer"
	"gofusion/internal/planner"
	"gofusion/internal/sql"
)

// Engine is a TightDB instance: a table registry plus a parallelism level.
type Engine struct {
	tables      map[string]Table
	reg         *functions.Registry
	opt         *optimizer.Optimizer
	Parallelism int
}

// Table is TightDB's data source contract: eager materialization with
// projection pushdown only.
type Table interface {
	Schema() *arrow.Schema
	// Materialize decodes the whole table (selected columns) into memory.
	Materialize(projection []int, workers int) ([]*arrow.RecordBatch, error)
	// NumRows returns the row count estimate, -1 if unknown.
	NumRows() int64
}

// New creates an engine with the given parallelism (threads).
func New(parallelism int) *Engine {
	if parallelism < 1 {
		parallelism = 1
	}
	reg := functions.NewRegistry()
	return &Engine{
		tables:      map[string]Table{},
		reg:         reg,
		opt:         optimizer.New(reg).Without((&optimizer.JoinOrder{}).Name()),
		Parallelism: parallelism,
	}
}

// WithParallelism returns a copy of the engine at a different thread count
// (tables shared).
func (e *Engine) WithParallelism(p int) *Engine {
	out := *e
	if p < 1 {
		p = 1
	}
	out.Parallelism = p
	return &out
}

// Register adds a table.
func (e *Engine) Register(name string, t Table) {
	e.tables[strings.ToLower(name)] = t
}

// tableSource adapts a baseline Table into the planner's resolver, also
// carrying statistics for the shared optimizer's join heuristics.
type tableSource struct{ t Table }

func (s *tableSource) Schema() *arrow.Schema { return s.t.Schema() }

func (e *Engine) resolve(name string) (logical.TableSource, error) {
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("baseline: table %q not found", name)
	}
	return &tableSource{t: t}, nil
}

// Query parses, plans, optimizes, and executes a SQL query, returning the
// concatenated result.
func (e *Engine) Query(query string) (*arrow.RecordBatch, error) {
	plan, err := e.plan(query)
	if err != nil {
		return nil, err
	}
	batches, err := e.execute(plan)
	if err != nil {
		return nil, err
	}
	return compute.ConcatBatches(plan.Schema().ToArrow(), batches)
}

// plan is the front half shared with the main engine: parse, plan and the
// logical optimizer, less join ordering. What execute is handed is what the
// main engine's physical planner is handed with its joins in FROM order,
// so the engine's join order is checked against the order the query was
// written in, and a physical rewrite (a lone count(DISTINCT) as a nested
// group-by) never reaches TightDB.
func (e *Engine) plan(query string) (logical.Plan, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("baseline: only queries are supported")
	}
	plan, err := planner.New(e.resolve, e.reg).PlanQuery(sel)
	if err != nil {
		return nil, err
	}
	return e.opt.Optimize(plan)
}
