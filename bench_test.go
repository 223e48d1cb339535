// Package gofusion hosts the paper-level benchmarks: one testing.B
// benchmark per evaluation table/figure (Table 1, Figures 5-7) plus the
// design-choice ablations from DESIGN.md. Dataset sizes default to
// laptop scale and are overridable via GOFUSION_BENCH_* environment
// variables (see internal/bench.DefaultConfig). The gofusion-bench binary
// runs the same harness and prints the paper's tables.
package gofusion

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/bench"
	"gofusion/internal/core"
	"gofusion/internal/parquet"
	"gofusion/internal/workload/tpch"
)

var (
	benchOnce sync.Once
	benchCfg  bench.Config
	benchErr  error
)

func setup(b *testing.B) bench.Config {
	b.Helper()
	benchOnce.Do(func() {
		benchCfg = bench.DefaultConfig()
		benchErr = benchCfg.EnsureData()
	})
	if benchErr != nil {
		b.Fatalf("generating benchmark data: %v", benchErr)
	}
	return benchCfg
}

// runBoth registers per-engine sub-benchmarks for one query.
func runBoth(b *testing.B, s *core.SessionContext, e *baseline.Engine, name, query string) {
	b.Run(name+"/gofusion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bench.RunGoFusion(s, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/tightdb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bench.RunTightDB(e, query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchWorkload(b *testing.B, w bench.Workload, cores int) {
	cfg := setup(b)
	s, err := cfg.GoFusionSession(w, cores)
	if err != nil {
		b.Fatal(err)
	}
	e, err := cfg.TightDBEngine(w, cores)
	if err != nil {
		b.Fatal(err)
	}
	nums, queries := bench.WorkloadQueries(w)
	for _, n := range nums {
		runBoth(b, s, e, fmt.Sprintf("Q%02d", n), queries[n])
	}
}

// BenchmarkTable1ClickBench reproduces Table 1: ClickBench queries on a
// single core, both engines, over partitioned GPQ files.
func BenchmarkTable1ClickBench(b *testing.B) {
	benchWorkload(b, bench.ClickBench, 1)
}

// BenchmarkFigure5TPCH reproduces Figure 5: the 22 TPC-H queries on a
// single core, one GPQ file per table.
func BenchmarkFigure5TPCH(b *testing.B) {
	benchWorkload(b, bench.TPCH, 1)
}

// BenchmarkFigure6H2O reproduces Figure 6: the 10 H2O groupby queries on
// a single core over one CSV file.
func BenchmarkFigure6H2O(b *testing.B) {
	benchWorkload(b, bench.H2O, 1)
}

// BenchmarkFigure7Scalability reproduces Figure 7: ClickBench query
// duration as the core count grows (a representative query subset keeps
// the sweep tractable; the harness binary runs the full set).
func BenchmarkFigure7Scalability(b *testing.B) {
	cfg := setup(b)
	queries := []int{3, 13, 16, 21, 32}
	_, all := bench.WorkloadQueries(bench.ClickBench)
	for _, cores := range cfg.Cores {
		s, err := cfg.GoFusionSession(bench.ClickBench, cores)
		if err != nil {
			b.Fatal(err)
		}
		e, err := cfg.TightDBEngine(bench.ClickBench, cores)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range queries {
			runBoth(b, s, e, fmt.Sprintf("Q%02d/cores=%d", q, cores), all[q])
		}
	}
}

// writeSkewData materializes a deliberately imbalanced multi-file table:
// 60 small single-row-group files followed by one fat file holding two
// 100k-row groups. Static dealing is greedy in file order, so the two
// fat row groups land on two already-loaded partitions (130k rows each
// vs 30k for the rest); the morsel scheduler's largest-first shared
// queue lets the other workers absorb the small files instead.
func writeSkewData(b *testing.B, dir string) []string {
	b.Helper()
	schema := arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
		arrow.NewField("v", arrow.Float64, false),
	)
	mkBatch := func(rows, seed int) *arrow.RecordBatch {
		kb := arrow.NewNumericBuilder[int64](arrow.Int64)
		vb := arrow.NewNumericBuilder[float64](arrow.Float64)
		for i := 0; i < rows; i++ {
			kb.Append(int64((seed+i)%97 - 8))
			vb.Append(float64(i%1000) * 0.5)
		}
		return arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()})
	}
	var files []string
	for f := 0; f < 60; f++ {
		path := filepath.Join(dir, fmt.Sprintf("small-%02d.gpq", f))
		if err := parquet.WriteFile(path, schema, []*arrow.RecordBatch{mkBatch(2000, f)},
			parquet.WriterOptions{RowGroupRows: 2000}); err != nil {
			b.Fatal(err)
		}
		files = append(files, path)
	}
	fat := filepath.Join(dir, "zfat.gpq")
	if err := parquet.WriteFile(fat, schema, []*arrow.RecordBatch{mkBatch(200_000, 7)},
		parquet.WriterOptions{RowGroupRows: 100_000}); err != nil {
		b.Fatal(err)
	}
	return append(files, fat)
}

// BenchmarkPipelineFusion measures pipeline fusion + morsel scheduling
// (DESIGN.md section 10) at 4 partitions: scan-heavy TPC-H Q1/Q6, plus a
// skewed multi-file scan that dynamic morsel claiming keeps balanced.
func BenchmarkPipelineFusion(b *testing.B) {
	cfg := setup(b)
	scfg := core.DefaultConfig()
	scfg.TargetPartitions = 4

	s := core.NewSession(scfg)
	if err := tpch.RegisterGPQ(s, fusionTPCHDir(b, cfg)); err != nil {
		b.Fatal(err)
	}
	_, queries := bench.WorkloadQueries(bench.TPCH)
	for _, n := range []int{1, 6} {
		b.Run(fmt.Sprintf("Q%02d/fused", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.RunGoFusion(s, queries[n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	skew := core.NewSession(scfg)
	if err := skew.RegisterGPQ("skew", writeSkewData(b, b.TempDir())...); err != nil {
		b.Fatal(err)
	}
	b.Run("Skew/fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bench.RunGoFusion(skew, "SELECT sum(v), count(*) FROM skew WHERE k > 0"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fusionTPCHDir materializes (once) the dedicated TPC-H copy with
// 25k-row groups shared by BenchmarkPipelineFusion and
// BenchmarkSharedCache; the shared bench dataset's 1M-row groups leave a
// single row group per table at laptop scale.
func fusionTPCHDir(b *testing.B, cfg bench.Config) string {
	b.Helper()
	dir := filepath.Join(cfg.DataDir, fmt.Sprintf("tpch-fusion-sf%g", cfg.TPCHSF))
	if _, err := os.Stat(filepath.Join(dir, "lineitem.gpq")); err != nil {
		if err := tpch.WriteGPQ(dir, cfg.TPCHSF, 25_000); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// BenchmarkSharedCache measures the shared decoded-page cache and the
// result cache (DESIGN.md section 11) on scan-heavy TPC-H Q1/Q6:
//
//	cold       - fresh session per iteration: every page decoded from disk
//	warm       - shared session, page cache primed: decode-free scans
//	nocache    - DisableSharedCache on a reused session: the uncached path
//	warmresult - EnableResultCache primed: whole-result memoization
//
// plus a concurrent mixed workload (4 goroutines alternating Q1/Q6 on
// one session) with the shared cache on vs off.
func BenchmarkSharedCache(b *testing.B) {
	cfg := setup(b)
	const cores = 4
	dir := fusionTPCHDir(b, cfg)
	_, queries := bench.WorkloadQueries(bench.TPCH)

	base := core.DefaultConfig()
	base.TargetPartitions = cores
	newSession := func(scfg core.SessionConfig) *core.SessionContext {
		s := core.NewSession(scfg)
		if err := tpch.RegisterGPQ(s, dir); err != nil {
			b.Fatal(err)
		}
		return s
	}
	run := func(b *testing.B, s *core.SessionContext, query string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, _, err := bench.RunGoFusion(s, query); err != nil {
				b.Fatal(err)
			}
		}
	}

	warm := newSession(base)
	defer warm.Close()
	noCfg := base
	noCfg.DisableSharedCache = true
	nocache := newSession(noCfg)
	defer nocache.Close()
	resCfg := base
	resCfg.EnableResultCache = true
	rescache := newSession(resCfg)
	defer rescache.Close()

	for _, n := range []int{1, 6} {
		query := queries[n]
		b.Run(fmt.Sprintf("Q%02d/cold", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := newSession(base)
				if _, _, err := bench.RunGoFusion(s, query); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
		for _, prime := range []*core.SessionContext{warm, rescache} {
			if _, _, err := bench.RunGoFusion(prime, query); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("Q%02d/warm", n), func(b *testing.B) { run(b, warm, query) })
		b.Run(fmt.Sprintf("Q%02d/nocache", n), func(b *testing.B) { run(b, nocache, query) })
		b.Run(fmt.Sprintf("Q%02d/warmresult", n), func(b *testing.B) { run(b, rescache, query) })
	}

	mixed := func(b *testing.B, s *core.SessionContext) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					q := queries[1]
					if g%2 == 1 {
						q = queries[6]
					}
					_, _, errs[g] = bench.RunGoFusion(s, q)
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("ConcurrentMixed/shared", func(b *testing.B) { mixed(b, warm) })
	b.Run("ConcurrentMixed/nocache", func(b *testing.B) { mixed(b, nocache) })
}

// BenchmarkAblations measures the design choices called out in DESIGN.md
// (statistics pruning, late materialization, RowFormat keys, sort-order
// aware aggregation, Top-K).
func BenchmarkAblations(b *testing.B) {
	cfg := setup(b)
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			abl, err := cfg.RunAblations()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, a := range abl {
					b.Logf("%-42s on=%-12s off=%-12s speedup=%s", a.Name, a.On, a.Off, a.Speedup())
				}
			}
		}
	})
}
