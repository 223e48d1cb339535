package fuzzsql

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/parquet"
	"gofusion/internal/testutil"
)

// Stream is a replay-only ingestion target: a live catalog.StreamTable fed
// through INSERT INTO and sealed before the differential phase. It is not
// part of AllFormats because the batch harness has no streaming sources.
const Stream Format = "stream"

// ReplayTargets lists the ingestion targets the replay harness drives by
// default: in-memory tables (INSERT INTO ... SELECT), GPQ files appended
// in place (COPY INTO, rotating the mmap fingerprint on every step), and
// live stream tables (INSERT INTO a StreamTable, sealed at the end).
var ReplayTargets = []Format{Mem, GPQ, Stream}

// ReplayOptions parameterizes a streaming differential replay run.
type ReplayOptions struct {
	// Seed drives the dataset, the chunking, and the query stream. The
	// same seed replays the same run bit-for-bit.
	Seed int64
	// N is the number of generated queries checked against the baseline
	// after ingestion completes (default 300).
	N int
	// Steps is the number of timed micro-batches each table is replayed
	// as (default 6; minimum 2 so at least one incremental step runs).
	Steps int
	// Interval is the pause between micro-batch steps, simulating data
	// arriving over time (default 0: replay as fast as possible).
	Interval time.Duration
	// Configs and Targets default to the full matrix and ReplayTargets.
	Configs []EngineConfig
	Targets []Format
	// Dir is the scratch directory for GPQ replay files; empty creates
	// (and removes) a temp dir.
	Dir string
	// MaxFailures stops the run early (default 3).
	MaxFailures int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// ReplayReport summarizes a replay run.
type ReplayReport struct {
	Seed    int64
	Steps   int
	Probes  int // mid-ingestion consistency probes that ran
	Queries int // post-seal differential queries that ran
	Elapsed time.Duration
	// Failures holds both mid-ingestion probe mismatches (stale caches,
	// lost writes) and post-seal differential failures (shrunk).
	Failures []ShrunkFailure
}

// replayEngine is one (config, target) session being fed micro-batches.
type replayEngine struct {
	s       *core.SessionContext
	config  EngineConfig
	target  Format
	gpqFile map[string]string               // table -> engine-private backing file
	streams map[string]*catalog.StreamTable // table -> live handle (for Seal)
}

// stageName is the scratch mem table INSERT INTO selects from. The query
// generator only ever references t1/t2, so the name cannot collide.
const stageName = "replay_stage"

// replayWriterOpts keeps row groups tiny so every appended step adds real
// pages (pruning, page cache, and multi-row-group scans all engage).
var replayWriterOpts = smallWriterOptions()

// RunReplay replays the seeded dataset as a sequence of timed micro-batch
// writes into every (config, target) session, probing row counts after
// each step (a stale result/page cache or a lost append shows up as a
// wrong count), then runs N generated queries over the final state and
// checks them against the one-shot batch baseline. Final-state results
// must be identical to a batch load of the same rows: ingestion order and
// chunking are not allowed to be observable.
func RunReplay(opts ReplayOptions) (*ReplayReport, error) {
	if len(opts.Configs) == 0 {
		opts.Configs = DefaultConfigs()
	}
	if len(opts.Targets) == 0 {
		opts.Targets = ReplayTargets
	}
	if opts.N <= 0 {
		opts.N = 300
	}
	if opts.Steps < 2 {
		opts.Steps = 6
	}
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 3
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "fuzzreplay")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	ds := NewDataset(opts.Seed)
	chunks := map[string][][]*arrow.RecordBatch{}
	for _, t := range ds.Tables {
		chunks[t.Name] = tableChunks(t, opts.Steps)
	}

	// The reference: a one-shot batch engine over the full dataset.
	be := baseline.New(2)
	for _, t := range ds.Tables {
		be.RegisterBatches(t.Name, t.Schema, t.Batches)
	}

	var engines []*replayEngine
	defer func() {
		for _, e := range engines {
			e.s.Close()
		}
	}()
	for _, tgt := range opts.Targets {
		for _, c := range opts.Configs {
			e, err := newReplayEngine(dir, c, tgt, ds, chunks)
			if err != nil {
				return nil, err
			}
			engines = append(engines, e)
		}
	}

	rep := &ReplayReport{Seed: opts.Seed, Steps: opts.Steps}
	start := time.Now()

	// Ingestion phase: step 0 was loaded at registration; replay the rest.
	rows := map[string]int64{}
	for _, t := range ds.Tables {
		rows[t.Name] = chunkRows(chunks[t.Name][0])
	}
	for step := 0; step < opts.Steps; step++ {
		if step > 0 {
			if opts.Interval > 0 {
				time.Sleep(opts.Interval)
			}
			for _, t := range ds.Tables {
				chunk := chunks[t.Name][step]
				if chunkRows(chunk) == 0 {
					continue
				}
				for _, e := range engines {
					if err := e.ingest(dir, t, step, chunk); err != nil {
						return nil, fmt.Errorf("replay: step %d ingest into %s/%s.%s: %w",
							step, e.target, e.config.Name, t.Name, err)
					}
				}
				rows[t.Name] += chunkRows(chunk)
			}
		}
		// Probe every engine after every step: a count served from a cache
		// entry that should have been invalidated by the step's write is a
		// correctness bug, caught here with an exact expected value. Unsealed
		// streams reject full aggregation at plan time (by design), so the
		// stream target is probed through the table handle instead.
		for _, t := range ds.Tables {
			for _, e := range engines {
				if e.target != Stream {
					continue
				}
				rep.Probes++
				if got := e.streams[t.Name].Rows(); got != rows[t.Name] {
					rep.Failures = append(rep.Failures, ShrunkFailure{
						Failure: Failure{SQL: "StreamTable.Rows()", Format: Stream, Config: e.config.Name,
							Detail: fmt.Sprintf("lost write: stream %s holds %d rows, want %d",
								t.Name, got, rows[t.Name])},
						MinimalSQL: "StreamTable.Rows()",
						NumClauses: 1,
					})
					if len(rep.Failures) >= opts.MaxFailures {
						rep.Elapsed = time.Since(start)
						return rep, nil
					}
				}
			}
			for _, probe := range countProbes(t) {
				for _, e := range engines {
					if e.target == Stream {
						continue
					}
					rep.Probes++
					if f := e.checkCount(probe, rows[t.Name]); f != nil {
						rep.Failures = append(rep.Failures, ShrunkFailure{
							Failure:    *f,
							MinimalSQL: probe,
							NumClauses: 1,
						})
						if len(rep.Failures) >= opts.MaxFailures {
							rep.Elapsed = time.Since(start)
							return rep, nil
						}
					}
				}
			}
		}
		logf("replay: step %d/%d done (t1=%d t2=%d rows), %d probes ok",
			step+1, opts.Steps, rows["t1"], rows["t2"], rep.Probes)
	}

	// Seal live streams: the differential phase runs arbitrary (blocking)
	// queries, which need bounded inputs. Once sealed, the SQL count probes
	// must work on the stream target too.
	for _, e := range engines {
		for _, st := range e.streams {
			st.Seal()
		}
	}
	for _, t := range ds.Tables {
		for _, probe := range countProbes(t) {
			for _, e := range engines {
				if e.target != Stream {
					continue
				}
				rep.Probes++
				if f := e.checkCount(probe, rows[t.Name]); f != nil {
					rep.Failures = append(rep.Failures, ShrunkFailure{
						Failure: *f, MinimalSQL: probe, NumClauses: 1,
					})
					if len(rep.Failures) >= opts.MaxFailures {
						rep.Elapsed = time.Since(start)
						return rep, nil
					}
				}
			}
		}
	}

	// Differential phase: the replayed engines must now be indistinguishable
	// from a one-shot batch load.
	check := func(q *Query) *Failure {
		sql := q.SQL()
		ref := runBaseline(be, sql)
		if ref.panicked {
			return &Failure{SQL: sql, Format: Mem, Config: "baseline", Detail: ref.err.Error()}
		}
		var refRows []testutil.Row
		if ref.err == nil {
			refRows = testutil.NormalizeBatch(ref.batch)
		}
		for _, e := range engines {
			if f := e.checkAgainst(sql, ref, refRows); f != nil {
				return f
			}
		}
		return nil
	}
	gen := NewGen(opts.Seed, ds)
	for rep.Queries < opts.N {
		q := gen.Query()
		rep.Queries++
		fail := check(q)
		if fail == nil {
			if rep.Queries%100 == 0 {
				logf("replay: %d/%d queries, %d failures", rep.Queries, opts.N, len(rep.Failures))
			}
			continue
		}
		logf("replay: query %d FAILED (%s/%s); shrinking...", rep.Queries, fail.Format, fail.Config)
		min := Shrink(q, func(c *Query) bool { return check(c) != nil })
		minFail := check(min)
		if minFail == nil { // flaky: report the original unshrunk
			minFail, min = fail, q
		}
		rep.Failures = append(rep.Failures, ShrunkFailure{
			Failure:    *minFail,
			MinimalSQL: min.SQL(),
			NumClauses: min.NumClauses(),
			Repro:      ReproSource(opts.Seed, minFail),
		})
		if len(rep.Failures) >= opts.MaxFailures {
			logf("replay: stopping after %d failures", len(rep.Failures))
			break
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Summary renders a human-readable report.
func (r *ReplayReport) Summary() string {
	s := fmt.Sprintf("replay: seed=%d steps=%d probes=%d queries=%d failures=%d elapsed=%s\n",
		r.Seed, r.Steps, r.Probes, r.Queries, len(r.Failures), r.Elapsed.Round(time.Millisecond))
	for i, f := range r.Failures {
		s += fmt.Sprintf("\n--- failure %d (%s/%s) ---\n%s\nminimal: %s\n", i+1, f.Format, f.Config, f.Detail, f.MinimalSQL)
		if f.Repro != "" {
			s += "\nrepro:\n" + f.Repro + "\n"
		}
	}
	return s
}

// tableChunks slices a table's rows into n contiguous chunks in global row
// order; concatenating the chunks reproduces the batch dataset exactly.
func tableChunks(t *Table, n int) [][]*arrow.RecordBatch {
	total := 0
	for _, b := range t.Batches {
		total += b.NumRows()
	}
	out := make([][]*arrow.RecordBatch, n)
	for k := 0; k < n; k++ {
		lo, hi := k*total/n, (k+1)*total/n
		out[k] = sliceRows(t.Batches, lo, hi)
	}
	return out
}

// sliceRows returns rows [lo, hi) of a batch sequence as batch slices.
func sliceRows(batches []*arrow.RecordBatch, lo, hi int) []*arrow.RecordBatch {
	var out []*arrow.RecordBatch
	base := 0
	for _, b := range batches {
		n := b.NumRows()
		s, e := lo-base, hi-base
		base += n
		if s < 0 {
			s = 0
		}
		if e > n {
			e = n
		}
		if s < n && e > s {
			out = append(out, b.Slice(s, e-s))
		}
	}
	return out
}

func chunkRows(chunk []*arrow.RecordBatch) int64 {
	var n int64
	for _, b := range chunk {
		n += int64(b.NumRows())
	}
	return n
}

// countProbes returns the mid-ingestion consistency queries for a table:
// a bare count (result-cache invalidation) and, when the table has the
// generated event-time column, a filtered count whose predicate forces
// data pages to be decoded (page-cache invalidation after a GPQ append —
// e is never null and never negative, so the filter keeps every row).
func countProbes(t *Table) []string {
	probes := []string{fmt.Sprintf("SELECT count(*) AS c0 FROM %s", t.Name)}
	for _, c := range t.Cols {
		if c.Name == "e" {
			probes = append(probes,
				fmt.Sprintf("SELECT count(*) AS c0 FROM %s WHERE e >= 0", t.Name))
		}
	}
	return probes
}

func newReplayEngine(dir string, c EngineConfig, tgt Format, ds *Dataset,
	chunks map[string][][]*arrow.RecordBatch) (*replayEngine, error) {
	e := &replayEngine{
		s:       core.NewSession(c.Cfg),
		config:  c,
		target:  tgt,
		gpqFile: map[string]string{},
		streams: map[string]*catalog.StreamTable{},
	}
	for _, t := range ds.Tables {
		chunk0 := chunks[t.Name][0]
		switch tgt {
		case Mem:
			if err := e.s.RegisterBatches(t.Name, t.Schema, chunk0); err != nil {
				return nil, err
			}
		case GPQ:
			// Each engine appends to its own file: COPY INTO rewrites the
			// footer in place, so replay files cannot be shared.
			path := filepath.Join(dir, fmt.Sprintf("%s-%s-replay.gpq", c.Name, t.Name))
			if err := parquet.WriteFile(path, t.Schema, chunk0, replayWriterOpts); err != nil {
				return nil, err
			}
			if err := e.s.RegisterGPQ(t.Name, path); err != nil {
				return nil, err
			}
			e.gpqFile[t.Name] = path
		case Stream:
			// t1 declares its event-time column so the stream also exercises
			// the watermark metadata path through scans and projections.
			wm := ""
			for _, col := range t.Cols {
				if col.Name == "e" {
					wm = "e"
				}
			}
			st, err := e.s.RegisterStream(t.Name, t.Schema, wm)
			if err != nil {
				return nil, err
			}
			if err := st.Append(chunk0...); err != nil {
				return nil, err
			}
			e.streams[t.Name] = st
		default:
			return nil, fmt.Errorf("replay: unsupported target %q", tgt)
		}
	}
	return e, nil
}

// ingest applies one micro-batch through the engine's SQL surface: the
// point is to take the same write path a user would, so catalog-version
// bumps and cache invalidation are part of what is being tested.
func (e *replayEngine) ingest(dir string, t *Table, step int, chunk []*arrow.RecordBatch) error {
	switch e.target {
	case Mem, Stream:
		if err := e.s.RegisterBatches(stageName, t.Schema, chunk); err != nil {
			return err
		}
		cols := make([]string, t.Schema.NumFields())
		for i, f := range t.Schema.Fields() {
			cols[i] = f.Name
		}
		sql := fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s",
			t.Name, strings.Join(cols, ", "), stageName)
		if out := runEngine(e.s, sql); out.err != nil {
			return out.err
		}
		e.s.DeregisterTable(stageName)
		return nil
	case GPQ:
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-step%d.gpq", e.config.Name, t.Name, step))
		if err := parquet.WriteFile(path, t.Schema, chunk, replayWriterOpts); err != nil {
			return err
		}
		sql := fmt.Sprintf("COPY INTO %s FROM '%s' FORMAT gpq", t.Name, path)
		if out := runEngine(e.s, sql); out.err != nil {
			return out.err
		}
		return nil
	}
	return fmt.Errorf("replay: unsupported target %q", e.target)
}

// checkCount runs a count probe and compares against the exact expected
// row count for the current ingestion state.
func (e *replayEngine) checkCount(sql string, want int64) *Failure {
	out := runEngine(e.s, sql)
	if out.err != nil {
		return &Failure{SQL: sql, Format: e.target, Config: e.config.Name,
			Detail: "probe error: " + out.err.Error()}
	}
	if out.batch.NumRows() != 1 || out.batch.NumCols() != 1 {
		return &Failure{SQL: sql, Format: e.target, Config: e.config.Name,
			Detail: fmt.Sprintf("probe shape: got %dx%d, want 1x1", out.batch.NumRows(), out.batch.NumCols())}
	}
	got := out.batch.Column(0).GetScalar(0).AsInt64()
	if got != want {
		return &Failure{SQL: sql, Format: e.target, Config: e.config.Name,
			Detail: fmt.Sprintf("stale read under ingestion: count=%d, want %d", got, want)}
	}
	return nil
}

// checkAgainst compares one query's result on this engine with the batch
// baseline outcome under Harness.Check's verdict rules.
func (e *replayEngine) checkAgainst(sql string, ref outcome, refRows []testutil.Row) *Failure {
	fail, _ := verdict(e.config, e.target, sql, runEngine(e.s, sql), ref, refRows)
	return fail
}
