// Package core is the engine's public facade (the paper's SessionContext
// and DataFrame APIs, Sections 5.1 and 5.3.3): it wires the catalog,
// function registry, SQL front end, optimizer, physical planner, and
// execution engine together, and exposes every extension point (UDFs,
// custom TableProviders, optimizer rules, extension operators, memory
// pools) to embedding systems.
package core

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/csvio"
	"gofusion/internal/exec"
	"gofusion/internal/functions"
	"gofusion/internal/jsonio"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/optimizer"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
	"gofusion/internal/planner"
	"gofusion/internal/sql"
)

// SessionConfig tunes a session (the paper's target_partitions, batch
// size, memory limits and spill settings).
type SessionConfig struct {
	// TargetPartitions is the planned parallelism; 0 means 1.
	TargetPartitions int
	// BatchRows is the engine batch size (default 8192, Section 5.5.1).
	BatchRows int
	// ScanReadahead is how many row groups each scan partition decodes
	// ahead of its consumer (I/O/decode pipelining); 0 means the default
	// (2), negative disables readahead.
	ScanReadahead int
	// ExchangeBufferDepth is the per-channel batch buffer of exchange
	// operators; 0 derives max(4, TargetPartitions) so consumers, which
	// run a whole operator chain per batch they take, don't stall
	// producers at high parallelism.
	ExchangeBufferDepth int
	// MemoryLimit bounds tracked operator memory in bytes; 0 = unlimited.
	MemoryLimit int64
	// SpillDir hosts spill files; empty uses the OS temp dir.
	SpillDir string
	// DisableOptimizer skips logical optimization (for tests/ablations).
	DisableOptimizer bool
	// PreferHashJoin disables merge join selection.
	PreferHashJoin bool
	// DisableSharedCache turns off the process-wide decoded-page cache
	// for this session (the cache defaults ON; spelled as a Disable flag
	// so the zero-value config keeps it).
	DisableSharedCache bool
	// EnableResultCache turns on the result cache for repeated identical
	// read-only queries, keyed on the print-stable SQL normalization plus
	// session knobs and invalidated by a registration or write of any
	// table the query read.
	// It defaults OFF (the issue names this knob DisableResultCache; a
	// default-off cache cannot be spelled as a Disable flag with Go zero
	// values, so the polarity is flipped).
	EnableResultCache bool
	// EnablePlanCache turns on the logical plan cache: repeated identical
	// queries (print-stable sql.FormatStatement normalization) skip
	// parsing, planning, and the optimizer and re-lower the memoized
	// optimized plan. Entries record the write stamp of every table they
	// read, so DDL, INSERT, COPY, or a stream append over one of those
	// tables drops plans over its stale provider snapshot. Default OFF
	// (same polarity rationale as EnableResultCache).
	EnablePlanCache bool
	// ParentPool, when set, charges every per-query memory pool to this
	// shared pool, so concurrent queries (sessions of one server) divide
	// one global budget; MemoryLimit then caps each query individually
	// before the parent is consulted. When nil, MemoryLimit alone bounds
	// each query and queries do not share a budget.
	ParentPool memory.Pool
	// WatermarkLateness is the event-time slack allowed for out-of-order
	// rows in streaming aggregation before a time bucket closes (in the
	// watermark column's units; default 0 = in-order sources).
	WatermarkLateness int64
	// SharedCacheBytes bounds the decoded-page cache (default 256 MiB).
	SharedCacheBytes int64
}

// DefaultConfig returns the recommended session configuration.
func DefaultConfig() SessionConfig {
	return SessionConfig{TargetPartitions: 1, BatchRows: 8192}
}

// withDefaults fills the knobs cfg leaves at zero.
func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.TargetPartitions <= 0 {
		cfg.TargetPartitions = 1
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 8192
	}
	if cfg.SharedCacheBytes <= 0 {
		cfg.SharedCacheBytes = 256 << 20
	}
	return cfg
}

// SessionContext is the entry point for embedding the engine.
type SessionContext struct {
	cfg         SessionConfig
	catalog     *catalog.MemoryCatalog
	reg         *functions.Registry
	pages       *parquet.PageCache
	results     *stampedCache[[]*arrow.RecordBatch]
	plans       *stampedCache[logical.Plan]
	cachePool   memory.Pool
	opt         *optimizer.Optimizer
	extPlanners []exec.ExtensionPlanner
	// writeMu serializes the commit step of writes (resolve the target,
	// append, register) across this session and every session derived
	// from it, which share its catalog.
	writeMu *sync.Mutex
}

// NewSession creates a session with the built-in catalog and functions.
func NewSession(cfg SessionConfig) *SessionContext {
	cfg = cfg.withDefaults()
	reg := functions.NewRegistry()
	s := &SessionContext{
		catalog: catalog.NewMemoryCatalog(),
		reg:     reg,
		opt:     optimizer.New(reg),
		writeMu: &sync.Mutex{},
	}
	// Caches charge a session-lifetime pool so resident bytes are visible
	// to memory accounting (and leak-checked under the sanitize tag);
	// per-query operator pools stay separate because they come and go
	// with each query.
	s.cachePool = memory.NewGreedyPool(cfg.SharedCacheBytes + resultCacheBytes)
	return s.WithConfig(cfg)
}

// Close releases the session's cache reservations (resident pages and
// results are dropped). The session stays usable; caches refill on use.
func (s *SessionContext) Close() {
	if s.pages != nil {
		s.pages.Close()
	}
	if s.results != nil {
		s.results.lru.Close()
	}
}

// Config returns the session configuration.
func (s *SessionContext) Config() SessionConfig { return s.cfg }

// WithConfig returns a session sharing catalogs, functions, and shared
// caches but with a different runtime configuration. Cache knobs apply
// per derived session: DisableSharedCache detaches the shared page cache
// here without affecting the base session, and EnableResultCache attaches
// a result cache (sharing the base session's if it has one).
func (s *SessionContext) WithConfig(cfg SessionConfig) *SessionContext {
	out := *s
	out.cfg = cfg.withDefaults()
	if cfg.DisableSharedCache {
		out.pages = nil
	} else if out.pages == nil {
		out.pages = parquet.NewPageCache(out.cfg.SharedCacheBytes, s.cachePool)
	}
	if !cfg.EnableResultCache {
		out.results = nil
	} else if out.results == nil {
		out.results = newStampedCache[[]*arrow.RecordBatch](resultCacheBytes, s.cachePool, "result-cache")
	}
	if !cfg.EnablePlanCache {
		out.plans = nil
	} else if out.plans == nil {
		out.plans = newStampedCache[logical.Plan](planCacheEntries, nil, "plan-cache")
	}
	return &out
}

// Registry exposes the function registry for UDF/UDAF/UDWF registration
// (paper Section 7.1).
func (s *SessionContext) Registry() *functions.Registry { return s.reg }

// Catalog exposes the session catalog (paper Section 7.2).
func (s *SessionContext) Catalog() *catalog.MemoryCatalog { return s.catalog }

// PageCache exposes the shared decoded-page cache (nil when disabled).
func (s *SessionContext) PageCache() *parquet.PageCache { return s.pages }

// WithOptimizerRule registers a custom logical optimizer rule to run
// BEFORE the built-in pipeline (macro expansions must precede filter
// pushdown); use WithOptimizerRuleLast for post-passes (paper Section
// 7.6: users control rewrite order).
func (s *SessionContext) WithOptimizerRule(r optimizer.Rule) *SessionContext {
	s.opt.WithRuleFirst(r)
	return s
}

// WithOptimizerRuleLast registers a custom rule after the built-ins.
func (s *SessionContext) WithOptimizerRuleLast(r optimizer.Rule) *SessionContext {
	s.opt.WithRule(r)
	return s
}

// WithoutOptimizerRules drops the named rules from the pipeline (A/B
// checks of a rule against the rest of the optimizer).
func (s *SessionContext) WithoutOptimizerRules(names ...string) *SessionContext {
	s.opt.Without(names...)
	return s
}

// WithExtensionPlanner registers a physical planner for user-defined
// logical operators (paper Section 7.7).
func (s *SessionContext) WithExtensionPlanner(p exec.ExtensionPlanner) *SessionContext {
	s.extPlanners = append(s.extPlanners, p)
	return s
}

func (s *SessionContext) publicSchema() *catalog.MemorySchema {
	sp, _ := s.catalog.SchemaByName("public")
	return sp.(*catalog.MemorySchema)
}

// RegisterTable registers any TableProvider under a name.
func (s *SessionContext) RegisterTable(name string, t catalog.TableProvider) {
	s.publicSchema().Register(name, t)
}

// DeregisterTable removes a table.
func (s *SessionContext) DeregisterTable(name string) {
	s.publicSchema().Deregister(name)
}

// RegisterBatches registers an in-memory table from record batches.
func (s *SessionContext) RegisterBatches(name string, schema *arrow.Schema, batches []*arrow.RecordBatch) error {
	mt, err := catalog.NewMemTable(schema, [][]*arrow.RecordBatch{batches})
	if err != nil {
		return err
	}
	s.RegisterTable(name, mt)
	return nil
}

// RegisterGPQ registers a GPQ-file-backed table (one or more files).
func (s *SessionContext) RegisterGPQ(name string, files ...string) error {
	t, err := catalog.NewGPQTable(files)
	if err != nil {
		return err
	}
	s.RegisterTable(name, t)
	return nil
}

// RegisterGPQDir registers all GPQ files under a directory as one table.
func (s *SessionContext) RegisterGPQDir(name, dir string) error {
	t, err := catalog.ListingTable(dir, "gpq")
	if err != nil {
		return err
	}
	s.RegisterTable(name, t)
	return nil
}

// RegisterCSV registers a CSV-backed table with schema inference.
func (s *SessionContext) RegisterCSV(name, path string, opts csvio.Options) error {
	t, err := catalog.NewCSVTable(path, nil, opts)
	if err != nil {
		return err
	}
	s.RegisterTable(name, t)
	return nil
}

// RegisterStream registers a live append-only table for the streaming
// workload class: writers call Append on the returned table (or INSERT
// INTO / COPY INTO it) while queries tail it. watermarkCol, when
// non-empty, declares the event-time column that streaming aggregation
// groups by. Writes from any goroutine renew the table's write stamp, so
// cached plans and results over it invalidate.
func (s *SessionContext) RegisterStream(name string, schema *arrow.Schema, watermarkCol string) (*catalog.StreamTable, error) {
	t := catalog.NewStreamTable(schema)
	if watermarkCol != "" {
		if _, err := t.WithWatermark(watermarkCol); err != nil {
			return nil, err
		}
	}
	ps := s.publicSchema()
	t.OnWrite(func() { ps.Touch(name) })
	ps.Register(name, t)
	return t, nil
}

// RegisterTailingJSON registers an unbounded table tailing an NDJSON file
// that an external process appends to. A nil schema is inferred from the
// file's current contents. The stream ends when the seal marker file
// (catalog.SealMarker(path)) appears.
func (s *SessionContext) RegisterTailingJSON(name, path string, schema *arrow.Schema, watermarkCol string, poll time.Duration) (*catalog.TailingJSONTable, error) {
	t, err := catalog.NewTailingJSONTable(path, schema, poll)
	if err != nil {
		return nil, err
	}
	if watermarkCol != "" {
		if _, err := t.WithWatermark(watermarkCol); err != nil {
			return nil, err
		}
	}
	s.RegisterTable(name, t)
	return t, nil
}

// RegisterJSON registers an NDJSON-backed table with schema inference.
func (s *SessionContext) RegisterJSON(name, path string) error {
	t, err := catalog.NewJSONTable(path, nil, jsonio.Options{})
	if err != nil {
		return err
	}
	s.RegisterTable(name, t)
	return nil
}

// resolveTable implements the planner's table resolver against the
// session catalog, supporting "table" and "schema.table".
func (s *SessionContext) resolveTable(name string) (logical.TableSource, error) {
	t, _, err := lookupTable(s.catalog, name)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// SQL plans a SQL query, returning a lazy DataFrame.
func (s *SessionContext) SQL(query string) (*DataFrame, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.SQLStatement(stmt)
}

// SQLStatement is SQL for an already parsed statement: a query becomes a
// lazy DataFrame, DDL and DML execute now and return a status row.
func (s *SessionContext) SQLStatement(stmt sql.Statement) (*DataFrame, error) {
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return s.selectDataFrame(st)
	case *sql.CreateTableStmt:
		return s.execCreateTable(st)
	case *sql.InsertStmt:
		return s.execInsert(st)
	case *sql.CopyStmt:
		return s.execCopy(st)
	case *sql.ExplainStmt:
		inner, ok := st.Stmt.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("core: EXPLAIN supports queries only")
		}
		pl := planner.New(s.resolveTable, s.reg)
		plan, err := pl.PlanQuery(inner)
		if err != nil {
			return nil, err
		}
		df := &DataFrame{session: s, plan: plan}
		var text string
		if st.Analyze {
			// EXPLAIN ANALYZE runs the query to completion and annotates
			// the plan with the recorded runtime metrics.
			text, err = df.ExplainAnalyze()
		} else {
			text, err = df.Explain()
		}
		if err != nil {
			return nil, err
		}
		return s.explainResult(text)
	}
	return nil, fmt.Errorf("core: unsupported statement")
}

// selectDataFrame builds the lazy frame for a query statement, consulting
// the plan cache when enabled: a hit hands back the memoized optimized
// logical plan (marked preOptimized so execution skips the optimizer and
// goes straight to physical lowering); a miss plans, optimizes, and
// memoizes the plan with the write stamps of the tables it looked up.
func (s *SessionContext) selectDataFrame(st *sql.SelectStmt) (*DataFrame, error) {
	df := &DataFrame{session: s}
	var key string
	if s.results != nil || s.plans != nil {
		key = s.cacheKey(st)
	}
	if s.results != nil {
		df.resultKey = key
	}
	if s.plans != nil {
		if ent, ok := s.plans.get(key, s.catalog); ok {
			df.plan, df.tables = ent.val, ent.tables
			df.preOptimized, df.planHit = true, true
			return df, nil
		}
	}
	rec := &stampRecorder{cat: s.catalog}
	plan, err := planner.New(rec.resolve, s.reg).PlanQuery(st)
	if err != nil {
		return nil, err
	}
	df.plan, df.tables = plan, rec.tables
	if s.plans != nil {
		optimized, err := s.OptimizePlan(plan)
		if err != nil {
			return nil, err
		}
		s.plans.put(key, rec.tables, optimized, 1)
		df.plan, df.preOptimized = optimized, true
	}
	return df, nil
}

// PreparedStatement is a parsed query handle: Prepare once, execute many
// times. Each Query() consults the session plan cache (when enabled), so
// repeated executions skip planning and optimization, and every
// execution lowers a fresh physical plan (cached plans are logical; see
// stampedCache).
type PreparedStatement struct {
	session *SessionContext
	stmt    *sql.SelectStmt
	text    string
}

// Prepare parses a query statement for repeated execution. Only plain
// queries can be prepared; DDL/DML execute eagerly through SQL.
func (s *SessionContext) Prepare(query string) (*PreparedStatement, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	st, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: only queries can be prepared")
	}
	return &PreparedStatement{session: s, stmt: st, text: sql.FormatStatement(st)}, nil
}

// SQL returns the print-stable normalized statement text.
func (ps *PreparedStatement) SQL() string { return ps.text }

// Query builds a fresh lazy frame for one execution of the statement.
func (ps *PreparedStatement) Query() (*DataFrame, error) {
	return ps.session.selectDataFrame(ps.stmt)
}

// PlanCacheStats snapshots the session's plan-cache counters; ok is
// false when the plan cache is disabled.
func (s *SessionContext) PlanCacheStats() (PlanCacheStats, bool) {
	if s.plans == nil {
		return PlanCacheStats{}, false
	}
	return s.plans.Stats(), true
}

// explainResult wraps EXPLAIN output as a one-column result.
func (s *SessionContext) explainResult(text string) (*DataFrame, error) {
	return s.textResult("plan", strings.Split(strings.TrimRight(text, "\n"), "\n"))
}

// statusResult wraps a DDL/DML acknowledgment as a one-row result.
func (s *SessionContext) statusResult(text string) (*DataFrame, error) {
	return s.textResult("status", []string{text})
}

func (s *SessionContext) textResult(col string, lines []string) (*DataFrame, error) {
	rows := make([][]logical.Expr, len(lines))
	for i, l := range lines {
		rows[i] = []logical.Expr{&logical.Alias{E: logical.Lit(l), Name: col}}
	}
	plan, err := logical.NewBuilder(s.reg).ValuesRows(rows).Build()
	if err != nil {
		return nil, err
	}
	return &DataFrame{session: s, plan: plan}, nil
}

// cacheKey identifies a query for the plan and result caches: the
// print-stable SQL normalization plus every session knob, since knobs
// change what the optimizer and physical planner produce, so derived
// sessions sharing one cache never serve each other mismatched plans or
// results. Table stamps are checked at lookup time, not baked into the
// key, so writes invalidate without growing the map.
func (s *SessionContext) cacheKey(st *sql.SelectStmt) string {
	return fmt.Sprintf("%s|%+v", sql.FormatStatement(st), s.cfg)
}

// resolveProvider resolves "table" or "schema.table" to its provider and
// owning mutable schema.
func (s *SessionContext) resolveProvider(name string) (catalog.TableProvider, *catalog.MemorySchema, string, error) {
	schemaName, tableName := splitTableName(name)
	sp, ok := s.catalog.SchemaByName(schemaName)
	if !ok {
		return nil, nil, "", fmt.Errorf("core: schema %q not found", schemaName)
	}
	ms, ok := sp.(*catalog.MemorySchema)
	if !ok {
		return nil, nil, "", fmt.Errorf("core: schema %q is read-only", schemaName)
	}
	t, _ := ms.Table(tableName)
	return t, ms, tableName, nil
}

// execCreateTable materializes CREATE TABLE name AS query into an
// in-memory table. The query runs before the write lock is taken; under
// it the name is checked again, so of two racing creations one fails.
func (s *SessionContext) execCreateTable(st *sql.CreateTableStmt) (*DataFrame, error) {
	existing, _, _, err := s.resolveProvider(st.Name)
	if err != nil {
		return nil, err
	}
	if existing != nil {
		return nil, fmt.Errorf("core: table %q already exists", st.Name)
	}
	pl := planner.New(s.resolveTable, s.reg)
	plan, err := pl.PlanQuery(st.Query)
	if err != nil {
		return nil, err
	}
	df := &DataFrame{session: s, plan: plan}
	batches, err := df.Collect()
	if err != nil {
		return nil, err
	}
	mt, err := catalog.NewMemTable(df.Schema().ToArrow(), [][]*arrow.RecordBatch{batches})
	if err != nil {
		return nil, err
	}
	s.writeMu.Lock()
	existing, ms, name, err := s.resolveProvider(st.Name)
	if err == nil && existing != nil {
		err = fmt.Errorf("core: table %q already exists", st.Name)
	}
	if err == nil {
		ms.Register(name, mt)
	}
	s.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.statusResult(fmt.Sprintf("CREATE TABLE %s (%d rows)", name, mt.Statistics().NumRows))
}

// execInsert appends INSERT INTO table query rows to a writable table
// (in-memory, stream, or GPQ-backed). The query runs before the write
// lock is taken (see appendRows).
func (s *SessionContext) execInsert(st *sql.InsertStmt) (*DataFrame, error) {
	existing, _, _, err := s.resolveProvider(st.Table)
	if err != nil {
		return nil, err
	}
	if existing == nil {
		return nil, fmt.Errorf("core: table %q not found", st.Table)
	}
	pl := planner.New(s.resolveTable, s.reg)
	plan, err := pl.PlanQuery(st.Query)
	if err != nil {
		return nil, err
	}
	batches, err := (&DataFrame{session: s, plan: plan}).Collect()
	if err != nil {
		return nil, err
	}
	rebased, rows, err := rebaseBatches(existing.Schema(), batches)
	if err != nil {
		return nil, fmt.Errorf("core: INSERT INTO %q: %w", st.Table, err)
	}
	if err := s.appendRows(st.Table, existing.Schema(), rebased); err != nil {
		return nil, fmt.Errorf("core: INSERT INTO %q: %w", st.Table, err)
	}
	return s.statusResult(fmt.Sprintf("INSERT %d", rows))
}

// execCopy bulk-loads COPY INTO table FROM 'path' rows into an existing
// writable table. The source format comes from the FORMAT clause or the
// path's extension. The file is read before the write lock is taken (see
// appendRows).
func (s *SessionContext) execCopy(st *sql.CopyStmt) (*DataFrame, error) {
	existing, _, _, err := s.resolveProvider(st.Table)
	if err != nil {
		return nil, err
	}
	if existing == nil {
		return nil, fmt.Errorf("core: table %q not found", st.Table)
	}
	format := st.Format
	if format == "" {
		format = strings.TrimPrefix(strings.ToLower(filepath.Ext(st.Path)), ".")
	}
	schema := existing.Schema()
	var src catalog.TableProvider
	switch format {
	case "gpq":
		src, err = catalog.NewGPQTable([]string{st.Path})
	case "csv":
		src, err = catalog.NewCSVTable(st.Path, schema, csvio.DefaultOptions())
	case "json", "ndjson":
		src, err = catalog.NewJSONTable(st.Path, schema, jsonio.Options{})
	default:
		return nil, fmt.Errorf("core: COPY INTO %q: unsupported format %q (want gpq, csv, or json)", st.Table, format)
	}
	if err != nil {
		return nil, fmt.Errorf("core: COPY INTO %q: %w", st.Table, err)
	}
	batches, err := s.readAllRows(src)
	if err != nil {
		return nil, fmt.Errorf("core: COPY INTO %q: %w", st.Table, err)
	}
	rebased, rows, err := rebaseBatches(schema, batches)
	if err != nil {
		return nil, fmt.Errorf("core: COPY INTO %q: %w", st.Table, err)
	}
	if err := s.appendRows(st.Table, schema, rebased); err != nil {
		return nil, fmt.Errorf("core: COPY INTO %q: %w", st.Table, err)
	}
	return s.statusResult(fmt.Sprintf("COPY %d", rows))
}

// readAllRows drains every partition of a provider's default scan.
func (s *SessionContext) readAllRows(t catalog.TableProvider) ([]*arrow.RecordBatch, error) {
	res, err := t.Scan(catalog.ScanRequest{Partitions: 1, BatchRows: s.cfg.BatchRows})
	if err != nil {
		return nil, err
	}
	var out []*arrow.RecordBatch
	for p := 0; p < res.Partitions; p++ {
		st, err := res.Open(p)
		if err != nil {
			return nil, err
		}
		for {
			b, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				st.Close()
				return nil, err
			}
			out = append(out, b)
		}
		st.Close()
	}
	return out, nil
}

// appendRows appends batches, rebased onto schema, to the table named
// target through its write path: in-memory tables grow immutably,
// compacting their tail partition, and re-register; stream tables append
// to the live log (waking tail readers) and renew the table's stamp; GPQ
// tables append row groups to their last backing file in place, then
// re-open so planning statistics reflect the grown file. Every path
// leaves the written table, and only it, with a fresh stamp.
//
// The session's write lock spans resolving the target to registering the
// grown table, so two writes to one table never both grow the same old
// snapshot (a lost update); everything that can run before — planning and
// running an INSERT's query, reading COPY's file — already has. The
// target is resolved afresh under the lock and must still have the
// schema the rows were rebased onto.
func (s *SessionContext) appendRows(target string, schema *arrow.Schema, batches []*arrow.RecordBatch) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	t, ms, name, err := s.resolveProvider(target)
	switch {
	case err != nil:
		return err
	case t == nil:
		return fmt.Errorf("table %q not found", target)
	case !t.Schema().Equal(schema):
		return fmt.Errorf("table %q changed schema to %s while the write ran", target, t.Schema())
	}
	switch tt := t.(type) {
	case *catalog.MemTable:
		grown, err := tt.WithAppended(batches, s.cfg.BatchRows)
		if err != nil {
			return err
		}
		ms.Register(name, grown)
	case *catalog.StreamTable:
		if err := tt.Append(batches...); err != nil {
			return err
		}
		ms.Touch(name)
	case *catalog.GPQTable:
		if err := tt.Append(batches, parquet.DefaultWriterOptions()); err != nil {
			return err
		}
		reopened, err := catalog.NewGPQTable(tt.Files())
		if err != nil {
			return err
		}
		ms.Register(name, reopened)
	default:
		return fmt.Errorf("table %q (%T) is not writable", name, t)
	}
	return nil
}

// rebaseBatches re-labels query output batches with the target table's
// schema (names may differ; types must match positionally).
func rebaseBatches(schema *arrow.Schema, batches []*arrow.RecordBatch) ([]*arrow.RecordBatch, int64, error) {
	var rows int64
	out := make([]*arrow.RecordBatch, 0, len(batches))
	for _, b := range batches {
		if b.NumCols() != schema.NumFields() {
			return nil, 0, fmt.Errorf("expected %d columns, query produced %d", schema.NumFields(), b.NumCols())
		}
		cols := make([]arrow.Array, b.NumCols())
		for i := 0; i < b.NumCols(); i++ {
			col := b.Column(i)
			want := schema.Field(i).Type
			if col.DataType().ID != want.ID {
				return nil, 0, fmt.Errorf("column %d: expected %s, query produced %s", i, want, col.DataType())
			}
			cols[i] = col
		}
		rows += int64(b.NumRows())
		out = append(out, arrow.NewRecordBatchWithRows(schema, cols, b.NumRows()))
	}
	return out, rows, nil
}

// Table returns a DataFrame scanning a registered table.
func (s *SessionContext) Table(name string) (*DataFrame, error) {
	src, err := s.resolveTable(name)
	if err != nil {
		return nil, err
	}
	plan, err := logical.NewBuilder(s.reg).Scan(name, src).Build()
	if err != nil {
		return nil, err
	}
	return &DataFrame{session: s, plan: plan}, nil
}

// OptimizePlan runs the logical optimizer.
func (s *SessionContext) OptimizePlan(plan logical.Plan) (logical.Plan, error) {
	if s.cfg.DisableOptimizer {
		return plan, nil
	}
	return s.opt.Optimize(plan)
}

// CreatePhysicalPlan optimizes and lowers a logical plan.
func (s *SessionContext) CreatePhysicalPlan(plan logical.Plan) (physical.ExecutionPlan, error) {
	optimized, err := s.OptimizePlan(plan)
	if err != nil {
		return nil, err
	}
	return s.lowerPlan(optimized)
}

// lowerPlan lowers an already-optimized logical plan to a fresh physical
// plan. Lowering never mutates the logical plan and re-prepares every
// provider scan, so one cached logical plan safely yields any number of
// independent physical plans (plan-cache re-instantiation).
func (s *SessionContext) lowerPlan(optimized logical.Plan) (physical.ExecutionPlan, error) {
	cfg := &exec.PlannerConfig{
		TargetPartitions:  s.cfg.TargetPartitions,
		BatchRows:         s.cfg.BatchRows,
		ScanReadahead:     s.cfg.ScanReadahead,
		Reg:               s.reg,
		PreferHashJoin:    s.cfg.PreferHashJoin,
		ExtensionPlanners: s.extPlanners,
		PageCache:         s.pages,
		WatermarkLateness: s.cfg.WatermarkLateness,
	}
	return exec.CreatePhysicalPlan(optimized, cfg)
}

// physicalPlanFor builds the physical plan for a frame: plan-cache hits
// carry pre-optimized plans and skip straight to lowering.
func (s *SessionContext) physicalPlanFor(df *DataFrame) (physical.ExecutionPlan, error) {
	if df.preOptimized {
		return s.lowerPlan(df.plan)
	}
	return s.CreatePhysicalPlan(df.plan)
}

// newExecContext builds the per-query runtime (paper Sections 5.5.4, 7.4)
// under parent. Its cleanup cancels the query, joins the goroutines the
// query started, and only then closes the spill files and releases the
// memory they may still hold.
func (s *SessionContext) newExecContext(parent context.Context) (*physical.ExecContext, func()) {
	ctx := physical.NewExecContext()
	qctx, cancel := context.WithCancel(parent)
	ctx.Ctx = qctx
	ctx.BatchRows = s.cfg.BatchRows
	ctx.TargetPartitions = s.cfg.TargetPartitions
	if s.cfg.ExchangeBufferDepth > 0 {
		ctx.ExchangeBuffer = s.cfg.ExchangeBufferDepth
	}
	var child *memory.ChildPool
	if s.cfg.ParentPool != nil {
		// Server mode: every query charges the shared parent budget, with
		// MemoryLimit (if set) as this query's individual cap.
		child = memory.NewChildPool(s.cfg.ParentPool, "query", s.cfg.MemoryLimit)
		ctx.Pool = child
	} else if s.cfg.MemoryLimit > 0 {
		ctx.Pool = memory.NewGreedyPool(s.cfg.MemoryLimit)
	}
	dm := memory.NewDiskManager(s.cfg.SpillDir)
	ctx.Disk = dm
	cleanup := func() {
		cancel()
		ctx.Wait()
		dm.Close()
		if child != nil {
			child.Release()
		}
	}
	return ctx, cleanup
}

// ExecutePlan runs a physical plan to completion.
func (s *SessionContext) ExecutePlan(plan physical.ExecutionPlan) ([]*arrow.RecordBatch, error) {
	ctx, cleanup := s.newExecContext(context.Background())
	defer cleanup()
	return exec.CollectPlan(ctx, plan)
}
