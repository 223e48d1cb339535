package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
	"gofusion/internal/planner"
	"gofusion/internal/sql"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed       int64
	seconds    float64
	trace      bool
	sz         sizes
	tmpDir     string // datasets and spill files; removed when the run ends
	outDir     string // trace files
	partitions int    // 0 = min(nproc, 2)
}

func (rc runConfig) targetPartitions() int {
	if rc.partitions > 0 {
		return rc.partitions
	}
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// phaseSeconds splits the run between the untraced and the traced phase.
// End-to-end numbers come only from the untraced one, which gets the whole
// run when tracing is off.
func (rc runConfig) phaseSeconds() (untraced, traced time.Duration) {
	total := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		return total / 2, total / 2
	}
	return total, 0
}

// report is what one workload run hands back to main.
type report struct {
	workload   string
	attempted  int64
	failed     int64
	failures   []string
	metrics    map[string]float64
	statements []statementLine
	// seqHash fingerprints the seeded operation order; counters are the
	// numbers that must repeat exactly for a seed (determinism test).
	seqHash  uint64
	counters map[string]int64
}

// statementLine is one row of the per-statement table printed for people.
type statementLine struct {
	name     string
	medianMS float64
	samples  int
}

// setLatencies derives the two latency metrics from per-statement
// samples: the geometric mean of the statement medians, which weighs a
// short statement like a long one so planning-side changes show, and the
// largest statement median, the statement a user waits longest for.
// Pooled percentiles over statements that differ a hundredfold sit on
// cluster boundaries and jump from run to run, so none is reported here.
func (r *report) setLatencies(names []string, lat [][]float64) error {
	var medians []float64
	for i, l := range lat {
		if len(l) == 0 {
			continue
		}
		medians = append(medians, median(l))
		r.statements = append(r.statements, statementLine{names[i], median(l), len(l)})
	}
	if len(medians) == 0 {
		return fmt.Errorf("%s: no operation completed correctly: %v", r.workload, r.failures)
	}
	r.metrics["query_geomean_ms"] = geomean(medians)
	r.metrics["query_max_ms"] = quantile(medians, 1)
	return nil
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// passOrder is the statement order of pass number pass (0 = warm-up).
func passOrder(seed int64, pass, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(pass))).Perm(n)
}

func inprocSeqHash(seed int64, n int) uint64 {
	h := fnv.New64a()
	for pass := 0; pass < 4; pass++ {
		for _, i := range passOrder(seed, pass, n) {
			h.Write([]byte{byte(i)})
		}
	}
	return h.Sum64()
}

func execSQL(s *core.SessionContext, q string) ([]*arrow.RecordBatch, error) {
	df, err := s.SQL(q)
	if err != nil {
		return nil, err
	}
	return df.Collect()
}

// tableResolver is the session's resolver for the planner, rebuilt from
// the public catalog so planning can be timed as its own step.
func tableResolver(s *core.SessionContext) planner.TableResolver {
	return func(name string) (logical.TableSource, error) {
		sp, ok := s.Catalog().SchemaByName("public")
		if !ok {
			return nil, fmt.Errorf("benchmark: schema public not found")
		}
		t, ok := sp.Table(name)
		if !ok {
			return nil, fmt.Errorf("benchmark: table %q not found", name)
		}
		return t, nil
	}
}

// execStaged runs one statement through the engine's public stages with a
// span around each, under a root "query" span: what SessionContext.SQL
// and Collect do in one call when no cache intervenes.
func execStaged(s *core.SessionContext, rec *recorder, op int, st statement) ([]*arrow.RecordBatch, physical.ExecutionPlan, error) {
	root := rec.begin("query", 0, op, st.Name)
	defer rec.end(root)

	id := rec.begin("sql.parse", root, op, st.Name)
	parsed, err := sql.Parse(st.SQL)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := parsed.(*sql.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("benchmark: %s is not a query", st.Name)
	}

	id = rec.begin("planner.plan", root, op, st.Name)
	plan, err := planner.New(tableResolver(s), s.Registry()).PlanQuery(sel)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}

	id = rec.begin("optimizer.optimize", root, op, st.Name)
	optimized, err := s.OptimizePlan(plan)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}

	cfg := s.Config()
	id = rec.begin("exec.lower", root, op, st.Name)
	pp, err := exec.CreatePhysicalPlan(optimized, &exec.PlannerConfig{
		TargetPartitions: cfg.TargetPartitions,
		BatchRows:        cfg.BatchRows,
		ScanReadahead:    cfg.ScanReadahead,
		Reg:              s.Registry(),
		PreferHashJoin:   cfg.PreferHashJoin,
		PageCache:        s.PageCache(),
	})
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}

	id = rec.begin("exec.run", root, op, st.Name)
	batches, err := s.ExecutePlan(pp)
	rec.end(id)
	return batches, pp, err
}

// drainGPQ decodes every page of the files through FileReader.Scan with no
// page cache and returns decoded bytes per second.
func drainGPQ(files []string) (float64, error) {
	var bytes int64
	start := time.Now()
	for _, path := range files {
		fr, err := parquet.OpenFile(path)
		if err != nil {
			return 0, err
		}
		sc, err := fr.Scan(parquet.ScanOptions{Limit: catalog.NoLimit})
		if err != nil {
			fr.Close()
			return 0, err
		}
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				sc.Close()
				fr.Close()
				return 0, err
			}
			bytes += arrow.BatchSize(b)
		}
		sc.Close()
		fr.Close()
	}
	return float64(bytes) / 1e6 / time.Since(start).Seconds(), nil
}

// inprocRun carries the state of one in-process workload run.
type inprocRun struct {
	w        *inprocWorkload
	rc       runConfig
	rep      *report
	ds       *dataset
	prep     *prepared
	expected []checksum
	lat      [][]float64 // per statement, ms, untraced timed passes
}

// pass runs every statement once in the pass's seeded order, checks each
// result against the verified checksum after its clock has stopped, and
// returns the sum of the statement latencies: verification stays out of
// the pass time.
func (r *inprocRun) pass(n int, one func(op int, st statement) ([]*arrow.RecordBatch, time.Duration, error), record bool) time.Duration {
	var total time.Duration
	for k, i := range passOrder(r.rc.seed, n, len(r.w.stmts)) {
		st := r.w.stmts[i]
		batches, d, err := one(n*len(r.w.stmts)+k+1, st)
		r.rep.attempted++
		total += d
		switch {
		case err != nil:
			r.rep.fail("%s: %v", st.Name, err)
		case !checksumBatches(batches, st.Stable).equal(r.expected[i]):
			r.rep.fail("%s: result differs from the verified one", st.Name)
		case record:
			r.lat[i] = append(r.lat[i], ms(d))
		}
	}
	return total
}

func (r *inprocRun) plain(_ int, st statement) ([]*arrow.RecordBatch, time.Duration, error) {
	start := time.Now()
	batches, err := execSQL(r.prep.session, st.SQL)
	return batches, time.Since(start), err
}

// setUp does the engine-side preparation once: write or load the dataset
// through the engine, register it, and run the warm-up pass (whose results
// are kept for verification). It returns the seconds it took.
func (r *inprocRun) setUp(dir string) (float64, [][]*arrow.RecordBatch, error) {
	if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
		return 0, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.TargetPartitions = r.rc.targetPartitions()
	cfg.SpillDir = filepath.Join(dir, "spill")
	start := time.Now()
	prep, err := r.w.prepare(r.ds, r.rc.sz, dir, cfg)
	if err != nil {
		return 0, nil, err
	}
	r.prep = prep
	warm := make([][]*arrow.RecordBatch, len(r.w.stmts))
	for _, i := range passOrder(r.rc.seed, 0, len(r.w.stmts)) {
		if warm[i], err = execSQL(prep.session, r.w.stmts[i].SQL); err != nil {
			return 0, nil, fmt.Errorf("warm-up %s: %w", r.w.stmts[i].Name, err)
		}
	}
	return time.Since(start).Seconds(), warm, nil
}

func runInproc(w *inprocWorkload, rc runConfig) (*report, error) {
	rep := &report{workload: w.name, metrics: map[string]float64{}, counters: map[string]int64{},
		seqHash: inprocSeqHash(rc.seed, len(w.stmts))}
	r := &inprocRun{w: w, rc: rc, rep: rep, lat: make([][]float64, len(w.stmts))}

	var err error
	if r.ds, err = w.generate(rc.sz, rc.tmpDir); err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}

	// Set-up is repeated so setup_s is a median; the last one is measured on.
	var setups []float64
	var warm [][]*arrow.RecordBatch
	for i := 0; i < rc.sz.setupRepeats; i++ {
		if r.prep != nil {
			r.prep.session.Close()
		}
		var secs float64
		if secs, warm, err = r.setUp(filepath.Join(rc.tmpDir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer r.prep.session.Close()
	s := r.prep.session

	// Correctness gate: every distinct statement against TightDB.
	ref, err := w.reference(r.ds, rc.targetPartitions())
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	r.expected = make([]checksum, len(w.stmts))
	for i, st := range w.stmts {
		rep.attempted++
		want, err := ref.Query(st.SQL)
		if err != nil {
			rep.fail("%s: reference engine: %v", st.Name, err)
		} else if diff := diffAgainst(warm[i], want, st.Stable); diff != "" {
			rep.fail("%s differs from TightDB: %s", st.Name, diff)
		}
		r.expected[i] = checksumBatches(warm[i], st.Stable)
		rep.counters["rows_returned"] += r.expected[i].rows
	}
	warm, ref = nil, nil
	runtime.GC()

	untracedFor, tracedFor := rc.phaseSeconds()
	mem := startMemDelta()
	okBefore := rep.attempted - rep.failed
	var passTimes []float64
	pass := 1
	for start := time.Now(); more(rc.sz.passes, len(passTimes), start, untracedFor); pass++ {
		passTimes = append(passTimes, r.pass(pass, r.plain, true).Seconds())
	}
	gcPause, allocBytes := mem.stop()
	okOps := rep.attempted - rep.failed - okBefore

	names := make([]string, len(w.stmts))
	for i, st := range w.stmts {
		names[i] = st.Name
	}
	if err := rep.setLatencies(names, r.lat); err != nil {
		return rep, err
	}
	untracedQPS := float64(okOps) / float64(len(passTimes)) / median(passTimes)
	rep.metrics["throughput_qps"] = untracedQPS
	rep.metrics["setup_s"] = median(setups)
	rep.counters["stored_bytes"] = r.prep.storedBytes
	rep.counters["raw_bytes"] = r.ds.rawBytes
	if !rc.trace {
		return rep, nil
	}

	// Traced phase: the same passes through the staged path.
	rec := newRecorder()
	ps := newPlanStats(s)
	cache0 := s.PageCache().Stats()
	var tracedTimes []float64
	for start := time.Now(); more(rc.sz.passes, len(tracedTimes), start, tracedFor); pass++ {
		d := r.pass(pass, func(op int, st statement) ([]*arrow.RecordBatch, time.Duration, error) {
			start := time.Now()
			batches, plan, err := execStaged(s, rec, op, st)
			d := time.Since(start)
			if err == nil {
				ps.addPlan(plan)
				for _, b := range batches {
					ps.rowsReturned += int64(b.NumRows())
				}
			}
			return batches, d, err
		}, false)
		tracedTimes = append(tracedTimes, d.Seconds())
	}
	cache1 := s.PageCache().Stats()
	passes := float64(len(tracedTimes))
	if err := sharedLayerMetrics(rep, rc, rec, ps, passes, gcPause, allocBytes, okOps); err != nil {
		return rep, err
	}

	m := rep.metrics
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	m["parquet.page_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["parquet.page_cache_evictions"] = float64(cache1.Evictions-cache0.Evictions) / passes
	if len(r.prep.files) > 0 {
		m["parquet.stored_bytes_per_raw_byte"] = ratio(float64(r.prep.storedBytes), float64(r.ds.rawBytes))
		if m["parquet.decode_mb_per_s"], err = drainGPQ(r.prep.files); err != nil {
			return rep, err
		}
	}
	if r.prep.csvSeconds > 0 {
		m["csvio.parse_mb_per_s"] = float64(r.ds.rawBytes) / 1e6 / r.prep.csvSeconds
	}
	m["trace_overhead_ratio"] = ratio(float64(len(w.stmts))/median(tracedTimes), untracedQPS)
	rep.counters["row_groups_scanned"] = ps.rgScanned
	return rep, nil
}

// more decides whether a phase runs another pass: a fixed count in smoke
// mode, otherwise until the phase's time is used, and always at least one.
func more(fixed, done int, start time.Time, d time.Duration) bool {
	if fixed > 0 {
		return done < fixed
	}
	return done == 0 || time.Since(start) < d
}
