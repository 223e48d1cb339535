package parquet

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func benchFile(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.gpq")
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("name", arrow.String, false),
		arrow.NewField("score", arrow.Float64, false),
	)
	var batches []*arrow.RecordBatch
	for start := 0; start < 100_000; start += 10_000 {
		ib := arrow.NewNumericBuilder[int64](arrow.Int64)
		sb := arrow.NewStringBuilder(arrow.String)
		fb := arrow.NewNumericBuilder[float64](arrow.Float64)
		for i := start; i < start+10_000; i++ {
			ib.Append(int64(i))
			sb.Append("name-" + arrow.Int64Scalar(int64(i%97)).String())
			fb.Append(float64(i) / 3)
		}
		batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{ib.Finish(), sb.Finish(), fb.Finish()}))
	}
	if err := WriteFile(path, schema, batches, DefaultWriterOptions()); err != nil {
		b.Fatal(err)
	}
	return path
}

func scanAllBench(b *testing.B, path string, opts ScanOptions) int64 {
	b.Helper()
	fr, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fr.Close()
	sc, err := fr.Scan(opts)
	if err != nil {
		b.Fatal(err)
	}
	var rows int64
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			b.Fatal(err)
		}
		rows += int64(batch.NumRows())
	}
}

func BenchmarkFullScan(b *testing.B) {
	path := benchFile(b)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Limit: -1})
	}
}

func BenchmarkSelectiveScanWithPruning(b *testing.B) {
	path := benchFile(b)
	pred := &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(99_000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Predicate: pred, Limit: -1})
	}
}

func BenchmarkSelectiveScanNoPruning(b *testing.B) {
	path := benchFile(b)
	pred := &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(99_000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Predicate: pred, Limit: -1,
			DisablePruning: true, DisableLateMaterialization: true})
	}
}

// cmpPredicateBench is `col > lit`.
type cmpPredicateBench struct {
	col int
	lit arrow.Scalar
}

func (p *cmpPredicateBench) Columns() []int { return []int{p.col} }
func (p *cmpPredicateBench) Evaluate(cols map[int]arrow.Array, _ int) (*arrow.BoolArray, error) {
	return compute.CompareScalar(compute.Gt, cols[p.col], p.lit, nil)
}
func (p *cmpPredicateBench) KeepColumnStats(_ int, stats ColumnStats) bool {
	return StatsKeepCompare(">", stats, p.lit)
}
func (p *cmpPredicateBench) EqProbes() []EqProbe { return nil }

// BenchmarkDecodePage decodes one 8192-row page per encoding x type x
// value shape; MB/s counts decoded (arrow) bytes.
func BenchmarkDecodePage(b *testing.B) {
	pages := seedPages(b, 8192)
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sp := pages[name]
		b.Run(name, func(b *testing.B) {
			arr, err := sp.decode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(arrow.ArraySize(arr))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSink, err = sp.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink arrow.Array
