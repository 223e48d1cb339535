package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/catalog"
	"gofusion/internal/core"
	"gofusion/internal/csvio"
	"gofusion/internal/parquet"
	"gofusion/internal/workload/clickbench"
	"gofusion/internal/workload/h2o"
	"gofusion/internal/workload/tpch"
)

// statement is one distinct SQL text of a workload.
type statement struct {
	Name string
	SQL  string
	// Stable lists the result columns that are the same on every run; nil
	// means all. See project in verify.go.
	Stable []int
}

type table struct {
	name    string
	schema  *arrow.Schema
	batches []*arrow.RecordBatch
}

// dataset is the synthetic input of an in-process workload, generated
// before any clock starts. The generators keep their fixed seeds: rows
// drawn from another seed change TPC-H join selectivities enough to move
// query_geomean_ms by +-10%, which would read as noise between runs. The
// run's seed orders the statements instead.
type dataset struct {
	tables   []table
	csvPath  string
	rawBytes int64 // in-memory (tables) or text (CSV) size
}

func (ds *dataset) add(name string, schema *arrow.Schema, batches []*arrow.RecordBatch) {
	for _, b := range batches {
		ds.rawBytes += arrow.BatchSize(b)
	}
	ds.tables = append(ds.tables, table{name, schema, batches})
}

// prepared is one finished engine-side set-up: files written or CSV
// loaded through the engine's own writers and readers, tables registered.
type prepared struct {
	session     *core.SessionContext
	files       []string // GPQ files, for the direct decode drain
	storedBytes int64
	csvSeconds  float64
}

// inprocWorkload describes a workload that runs statements through
// SessionContext.SQL(..).Collect() in this process.
type inprocWorkload struct {
	name     string
	stmts    []statement
	generate func(sz sizes, dir string) (*dataset, error)
	prepare  func(ds *dataset, sz sizes, dir string, cfg core.SessionConfig) (*prepared, error)
	// reference builds the TightDB engine over the generated rows, not
	// over what the engine wrote, so a writer or reader fault shows.
	reference func(ds *dataset, partitions int) (*baseline.Engine, error)
}

func writeGPQ(p *prepared, path string, schema *arrow.Schema, batches []*arrow.RecordBatch, opts parquet.WriterOptions) error {
	if err := parquet.WriteFile(path, schema, batches, opts); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.files = append(p.files, path)
	p.storedBytes += st.Size()
	return nil
}

func memReference(ds *dataset, partitions int) (*baseline.Engine, error) {
	e := baseline.New(partitions)
	for _, t := range ds.tables {
		e.RegisterBatches(t.name, t.schema, t.batches)
	}
	return e, nil
}

func numbered(prefix string, nums []int, text func(int) string) []statement {
	out := make([]statement, len(nums))
	for i, n := range nums {
		out[i] = statement{Name: fmt.Sprintf("%s%02d", prefix, n), SQL: text(n)}
	}
	return out
}

func seq(from, to int) []int {
	var out []int
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return out
}

var tpchPowerWarm = &inprocWorkload{
	name:  "tpch_power_warm",
	stmts: numbered("q", seq(1, 22), func(n int) string { return tpch.Queries[n] }),
	generate: func(sz sizes, _ string) (*dataset, error) {
		g := tpch.NewGenerator(sz.tpchSF)
		ds := &dataset{}
		for _, name := range tpch.TableNames {
			schema, batches, err := g.Generate(name)
			if err != nil {
				return nil, err
			}
			ds.add(name, schema, batches)
		}
		return ds, nil
	},
	prepare: func(ds *dataset, sz sizes, dir string, cfg core.SessionConfig) (*prepared, error) {
		p := &prepared{}
		opts := parquet.DefaultWriterOptions()
		opts.RowGroupRows = sz.tpchGroupRows
		for _, t := range ds.tables {
			if err := writeGPQ(p, filepath.Join(dir, t.name+".gpq"), t.schema, t.batches, opts); err != nil {
				return nil, err
			}
		}
		p.session = core.NewSession(cfg)
		return p, tpch.RegisterGPQ(p.session, dir)
	},
	reference: memReference,
}

// clickbenchStatements is the scan-bound subset: statements whose time is
// decode, pruning and filter-during-scan, not a large group table. 37 to
// 42 order by a count with ties and then cut with LIMIT, so only their
// count column repeats from run to run and from engine to engine; 25
// returns the SearchPhrase of the ten earliest events and ties on
// EventTime, so only its row count does.
func clickbenchStatements() []statement {
	q := clickbench.Queries()
	stmts := numbered("q", []int{1, 2, 3, 4, 5, 6, 7, 8, 20, 21, 25, 26, 27, 30, 37, 38, 39, 40, 41, 42, 43},
		func(n int) string { return q[n] })
	stable := map[string][]int{
		"q25": {},
		"q37": {1}, "q38": {1}, "q39": {1}, "q40": {5}, "q41": {2}, "q42": {2},
	}
	for i := range stmts {
		if cols, ok := stable[stmts[i].Name]; ok {
			stmts[i].Stable = cols
		}
	}
	return stmts
}

var clickbenchScanCold = &inprocWorkload{
	name:  "clickbench_scan_cold",
	stmts: clickbenchStatements(),
	generate: func(sz sizes, _ string) (*dataset, error) {
		schema, batches := clickbench.NewGenerator(sz.hitsRows).Generate()
		ds := &dataset{}
		ds.add("hits", schema, batches)
		return ds, nil
	},
	prepare: func(ds *dataset, sz sizes, dir string, cfg core.SessionConfig) (*prepared, error) {
		p := &prepared{}
		hits := ds.tables[0]
		// Batches are dealt round-robin, the layout clickbench.WriteGPQ
		// produces (the paper's partitioned hits).
		perFile := make([][]*arrow.RecordBatch, sz.hitsFiles)
		for i, b := range hits.batches {
			perFile[i%sz.hitsFiles] = append(perFile[i%sz.hitsFiles], b)
		}
		for i, batches := range perFile {
			path := filepath.Join(dir, fmt.Sprintf("hits_%03d.gpq", i))
			if err := writeGPQ(p, path, hits.schema, batches, parquet.DefaultWriterOptions()); err != nil {
				return nil, err
			}
		}
		// Far below the decoded working set, where the engine default
		// (256 MiB) would hold all of it.
		cfg.SharedCacheBytes = sz.hitsCache
		p.session = core.NewSession(cfg)
		return p, clickbench.RegisterGPQ(p.session, dir)
	},
	reference: memReference,
}

var h2oGroupbyMem = &inprocWorkload{
	name:  "h2o_groupby_mem",
	stmts: numbered("q", seq(1, 10), func(n int) string { return h2o.Queries[n] }),
	generate: func(sz sizes, dir string) (*dataset, error) {
		path := filepath.Join(dir, "h2o.csv")
		if err := h2o.WriteCSV(path, sz.h2oRows); err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		return &dataset{csvPath: path, rawBytes: st.Size()}, nil
	},
	prepare: func(ds *dataset, _ sizes, _ string, cfg core.SessionConfig) (*prepared, error) {
		p := &prepared{session: core.NewSession(cfg)}
		start := time.Now()
		if err := p.session.RegisterCSV("x", ds.csvPath, csvio.DefaultOptions()); err != nil {
			return nil, err
		}
		df, err := p.session.SQL("SELECT * FROM x")
		if err != nil {
			return nil, err
		}
		batches, err := df.Collect()
		if err != nil {
			return nil, err
		}
		p.csvSeconds = time.Since(start).Seconds()
		if len(batches) == 0 {
			return nil, fmt.Errorf("h2o: CSV load returned no rows")
		}
		// One in-memory partition per target partition, dealt round-robin:
		// a single partition (RegisterBatches) would put an exchange under
		// every aggregate, and how its two consumers get scheduled then
		// decides a 10 ms statement's time.
		parts := make([][]*arrow.RecordBatch, cfg.TargetPartitions)
		for i, b := range batches {
			parts[i%len(parts)] = append(parts[i%len(parts)], b)
		}
		mt, err := catalog.NewMemTable(batches[0].Schema(), parts)
		if err != nil {
			return nil, err
		}
		p.session.RegisterTable("x", mt)
		return p, nil
	},
	reference: func(ds *dataset, partitions int) (*baseline.Engine, error) {
		e := baseline.New(partitions)
		return e, e.RegisterCSV("x", ds.csvPath)
	},
}

var inprocWorkloads = []*inprocWorkload{tpchPowerWarm, clickbenchScanCold, h2oGroupbyMem}
