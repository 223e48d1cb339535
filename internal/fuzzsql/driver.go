package fuzzsql

import (
	"errors"
	"fmt"
	"path/filepath"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/baseline"
	"gofusion/internal/core"
	"gofusion/internal/csvio"
	"gofusion/internal/exec"
	"gofusion/internal/memory"
	"gofusion/internal/parquet"
	"gofusion/internal/testutil"
)

// Format is a storage backend for the generated tables. The same rows are
// materialized to all formats; comparisons are always within one format
// (engine config vs baseline), so format-specific schema inference (CSV)
// can never cause false positives.
type Format string

const (
	Mem Format = "mem"
	CSV Format = "csv"
	GPQ Format = "gpq"
)

// AllFormats lists every backend.
var AllFormats = []Format{Mem, CSV, GPQ}

// EngineConfig is one point in the engine's configuration matrix.
type EngineConfig struct {
	Name string
	Cfg  core.SessionConfig
}

// DefaultConfigs returns the matrix exercised by the harness: serial vs
// partitioned, forced spill, no readahead, tiny exchange buffers, and
// tiny batches. All of these must agree with each other and with the
// baseline.
func DefaultConfigs() []EngineConfig {
	return []EngineConfig{
		{"p1", core.SessionConfig{TargetPartitions: 1}},
		{"p4", core.SessionConfig{TargetPartitions: 4}},
		// 4KiB genuinely forces sort/aggregate spills on the generated
		// dataset (the previous 8KiB sat just above the pool peak, so the
		// "forced spill" config never actually spilled).
		{"p4-spill", core.SessionConfig{TargetPartitions: 4, MemoryLimit: 4 << 10}},
		{"p4-noreadahead", core.SessionConfig{TargetPartitions: 4, ScanReadahead: -1}},
		{"p4-smallbuf", core.SessionConfig{TargetPartitions: 4, ExchangeBufferDepth: 1}},
		{"p1-smallbatch", core.SessionConfig{TargetPartitions: 1, BatchRows: 64}},
		// Shared-cache matrix: every config above runs with the shared
		// decoded-page cache on (the default) against a tight budget is
		// covered by unit tests; here nocache pins the uncached decode
		// path and rescache runs with the result cache on, so cached,
		// uncached, and memoized execution all cross-check each other and
		// the baseline under the race+sanitize CI modes.
		{"p1-nocache", core.SessionConfig{TargetPartitions: 1, DisableSharedCache: true}},
		{"p4-rescache", core.SessionConfig{TargetPartitions: 4, EnableResultCache: true}},
		// plancache replans nothing after the first sight of a statement:
		// generated queries that repeat (and every re-execution inside one
		// config run) execute from the cached optimized logical plan, so
		// cached planning cross-checks fresh planning and the baseline.
		{"p4-plancache", core.SessionConfig{TargetPartitions: 4, EnablePlanCache: true}},
	}
}

// ConfigByName resolves matrix entries by name.
func ConfigByName(names []string) ([]EngineConfig, error) {
	all := DefaultConfigs()
	var out []EngineConfig
	for _, n := range names {
		found := false
		for _, c := range all {
			if c.Name == n {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fuzzsql: unknown config %q", n)
		}
	}
	return out, nil
}

// Failure describes one disagreement (or panic) found by the harness.
type Failure struct {
	SQL    string
	Format Format
	Config string // engine config name, or "baseline" for baseline panics
	Detail string
}

func (f *Failure) String() string {
	return fmt.Sprintf("[%s/%s] %s\n  query: %s", f.Format, f.Config, f.Detail, f.SQL)
}

// Harness holds one dataset registered under every (format, config)
// combination: a baseline engine per format and an engine session per
// format x config.
type Harness struct {
	DS       *Dataset
	Configs  []EngineConfig
	Formats  []Format
	baseline map[Format]*baseline.Engine
	engines  map[string]*core.SessionContext // key: config name + "/" + format
	// SpillCounts / SpillBytes accumulate per-config spill totals across
	// every query checked, so callers can assert that memory-limited
	// configs actually spilled. Not safe for concurrent Check calls.
	SpillCounts map[string]int64
	SpillBytes  map[string]int64
	// WindowBudgetFailures and JoinBudgetFailures count, per
	// memory-limited config, the window and join queries that ran out of
	// budget (see overBudget).
	WindowBudgetFailures map[string]int64
	JoinBudgetFailures   map[string]int64
}

// NewHarness materializes the dataset under dir (for csv/gpq) and
// registers it everywhere. GPQ files are written with tiny row groups
// split across two files per table, forcing row-group pruning, partition
// splits, and multi-file scans.
func NewHarness(ds *Dataset, dir string, configs []EngineConfig, formats []Format) (*Harness, error) {
	h := &Harness{
		DS:                   ds,
		Configs:              configs,
		Formats:              formats,
		baseline:             map[Format]*baseline.Engine{},
		engines:              map[string]*core.SessionContext{},
		SpillCounts:          map[string]int64{},
		SpillBytes:           map[string]int64{},
		WindowBudgetFailures: map[string]int64{},
		JoinBudgetFailures:   map[string]int64{},
	}
	files := map[Format]map[string][]string{CSV: {}, GPQ: {}}
	for _, f := range formats {
		if f == Mem {
			continue
		}
		for _, t := range ds.Tables {
			fs, err := writeTable(dir, f, t)
			if err != nil {
				return nil, err
			}
			files[f][t.Name] = fs
		}
	}
	for _, f := range formats {
		be := baseline.New(2)
		for _, t := range ds.Tables {
			if err := registerBaseline(be, f, t, files[f][t.Name]); err != nil {
				return nil, err
			}
		}
		h.baseline[f] = be
		for _, c := range configs {
			s := core.NewSession(c.Cfg)
			for _, t := range ds.Tables {
				if err := registerEngine(s, f, t, files[f][t.Name]); err != nil {
					return nil, err
				}
			}
			h.engines[c.Name+"/"+string(f)] = s
		}
	}
	return h, nil
}

// Close releases every engine session's cache reservations. Required for
// sanitize-tagged runs: the shared page/result caches hold pool
// reservations for the session's lifetime, and SanitizerFindings flags
// any reservation never freed.
func (h *Harness) Close() {
	for _, s := range h.engines {
		s.Close()
	}
}

// smallWriterOptions is the writer's default encoding (dictionary pages,
// bloom filters) over 64-row row groups of 32-row pages, so
// tiny tables still span several row groups and pages.
func smallWriterOptions() parquet.WriterOptions {
	opts := parquet.DefaultWriterOptions()
	opts.RowGroupRows, opts.PageRows = 64, 32
	return opts
}

// writeTable encodes a table to its on-disk format, returning the files.
func writeTable(dir string, f Format, t *Table) ([]string, error) {
	switch f {
	case CSV:
		path := filepath.Join(dir, t.Name+".csv")
		return []string{path}, csvio.WriteFile(path, t.Schema, t.Batches, ',')
	case GPQ:
		// Two files, 64-row row groups: a ~240-row table becomes ~4 row
		// groups over 2 files, so partitioned scans split work and range
		// predicates prune groups.
		opts := smallWriterOptions()
		half := (len(t.Batches) + 1) / 2
		p0 := filepath.Join(dir, t.Name+"-0.gpq")
		p1 := filepath.Join(dir, t.Name+"-1.gpq")
		if err := parquet.WriteFile(p0, t.Schema, t.Batches[:half], opts); err != nil {
			return nil, err
		}
		if err := parquet.WriteFile(p1, t.Schema, t.Batches[half:], opts); err != nil {
			return nil, err
		}
		return []string{p0, p1}, nil
	}
	return nil, nil
}

func registerBaseline(be *baseline.Engine, f Format, t *Table, files []string) error {
	switch f {
	case Mem:
		be.RegisterBatches(t.Name, t.Schema, t.Batches)
		return nil
	case CSV:
		return be.RegisterCSV(t.Name, files[0])
	default:
		return be.RegisterGPQ(t.Name, files...)
	}
}

func registerEngine(s *core.SessionContext, f Format, t *Table, files []string) error {
	switch f {
	case Mem:
		return s.RegisterBatches(t.Name, t.Schema, t.Batches)
	case CSV:
		return s.RegisterCSV(t.Name, files[0], csvio.DefaultOptions())
	default:
		return s.RegisterGPQ(t.Name, files...)
	}
}

// outcome is one engine's verdict on one query.
type outcome struct {
	batch    *arrow.RecordBatch
	err      error
	panicked bool
	// metricsErr reports a metric-invariant violation on an otherwise
	// successful run (correct rows, broken accounting).
	metricsErr error
	// spillCount/spillBytes are summed over the executed plan's operators.
	spillCount int64
	spillBytes int64
}

func runEngine(s *core.SessionContext, query string) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("panic: %v", r), panicked: true}
		}
	}()
	df, err := s.SQL(query)
	if err != nil {
		return outcome{err: err}
	}
	batches, qm, err := df.CollectWithMetrics()
	if err != nil {
		return outcome{err: err}
	}
	b, err := compute.ConcatBatches(df.Schema().ToArrow(), batches)
	if err != nil {
		return outcome{err: err}
	}
	out = outcome{batch: b}
	if qm.ResultCacheHit {
		// A cache-served execution never ran the plan, so its operators
		// legitimately report zero rows; there is nothing to cross-check.
		return out
	}
	out.metricsErr = exec.CheckPlanMetrics(qm.Plan, qm.RowsReturned)
	out.spillCount, out.spillBytes = exec.PlanSpillStats(qm.Plan)
	if out.metricsErr == nil && out.spillCount > 0 && out.spillBytes == 0 {
		out.metricsErr = fmt.Errorf("spill_count=%d but spilled_bytes=0", out.spillCount)
	}
	return out
}

func runBaseline(e *baseline.Engine, query string) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("panic: %v", r), panicked: true}
		}
	}()
	b, err := e.Query(query)
	return outcome{batch: b, err: err}
}

// Check runs one SQL string across the whole matrix and returns the first
// failure, or nil when every configuration agrees with the baseline.
// Error parity counts as agreement (both sides rejecting a query is
// consistent behavior); panics never do.
func (h *Harness) Check(query string) *Failure {
	for _, f := range h.Formats {
		ref := runBaseline(h.baseline[f], query)
		if ref.panicked {
			return &Failure{SQL: query, Format: f, Config: "baseline", Detail: ref.err.Error()}
		}
		var refRows []testutil.Row
		if ref.err == nil {
			refRows = testutil.NormalizeBatch(ref.batch)
		}
		for _, c := range h.Configs {
			got := runEngine(h.engines[c.Name+"/"+string(f)], query)
			fail, exhausted := verdict(c, f, query, got, ref, refRows)
			switch {
			case fail != nil:
				return fail
			case exhausted == "WindowExec":
				h.WindowBudgetFailures[c.Name]++
			case exhausted != "":
				h.JoinBudgetFailures[c.Name]++
			case got.err == nil:
				h.SpillCounts[c.Name] += got.spillCount
				h.SpillBytes[c.Name] += got.spillBytes
			}
		}
	}
	return nil
}

// verdict judges one engine outcome against the baseline's: the failure it
// amounts to, if any, and the operator whose accepted over-budget failure
// it is ("" for none).
func verdict(c EngineConfig, f Format, query string, got, ref outcome, refRows []testutil.Row) (fail *Failure, exhausted string) {
	failure := func(detail string) *Failure {
		return &Failure{SQL: query, Format: f, Config: c.Name, Detail: detail}
	}
	switch {
	case got.panicked:
		return failure(got.err.Error()), ""
	case ref.err == nil && overBudget(c, got.err) != "":
		return nil, overBudget(c, got.err)
	case (got.err == nil) != (ref.err == nil):
		return failure(fmt.Sprintf("error divergence: engine=%v baseline=%v", got.err, ref.err)), ""
	case got.err == nil:
		if diff := testutil.Diff(testutil.NormalizeBatch(got.batch), refRows); diff != "" {
			return failure("result mismatch vs baseline:\n" + diff), ""
		}
		if got.metricsErr != nil {
			return failure("metrics invariant violation: " + got.metricsErr.Error()), ""
		}
	}
	return nil, ""
}

// overBudget recognizes the engine-only failures the matrix expects, and
// names the operator: windows and join builds do not spill, so under a
// memory-limited config one whose input outgrows the budget must fail,
// and with exactly the typed exhaustion error of its reservation. Anything
// else a memory-limited config fails with is a divergence.
func overBudget(c EngineConfig, err error) string {
	var exhausted *memory.ErrResourcesExhausted
	if c.Cfg.MemoryLimit > 0 && errors.As(err, &exhausted) {
		switch exhausted.Consumer {
		case "WindowExec", "HashJoinExec", "NestedLoopJoinExec", "SortMergeJoinExec":
			return exhausted.Consumer
		}
	}
	return ""
}

// CheckQuery is Check over a structured query.
func (h *Harness) CheckQuery(q *Query) *Failure { return h.Check(q.SQL()) }
