package parquet

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

func benchFile(b *testing.B, compression bool) string {
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
	opts := DefaultWriterOptions()
	opts.Compression = compression
	if err := WriteFile(path, schema, batches, opts); err != nil {
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

func BenchmarkFullScanUncompressed(b *testing.B) {
	path := benchFile(b, false)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Limit: -1})
	}
}

func BenchmarkFullScanCompressed(b *testing.B) {
	path := benchFile(b, true)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Limit: -1})
	}
}

func BenchmarkSelectiveScanWithPruning(b *testing.B) {
	path := benchFile(b, true)
	pred := &cmpPredicateBench{col: 0, lit: arrow.Int64Scalar(99_000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllBench(b, path, ScanOptions{Predicate: pred, Limit: -1})
	}
}

func BenchmarkSelectiveScanNoPruning(b *testing.B) {
	path := benchFile(b, true)
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
// codec; MB/s counts decoded (arrow) bytes.
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

// BenchmarkLZ runs the byte codec over one page of URLs shaped like the
// ClickBench generator's URL column (skewed domains and page ids).
func BenchmarkLZ(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	domains := []string{"example.com", "shop.example.org", "news.site.net", "google.com",
		"mail.google.com", "maps.google.com", "video.host.tv", "blog.words.io"}
	skewed := func(n int) int { u := rng.Float64(); return int(u * u * float64(n)) }
	var urls []byte
	for i := 0; i < 8192; i++ {
		urls = fmt.Appendf(urls, "http://%s/p/%d", domains[skewed(len(domains))], skewed(100_000))
	}
	var table lzTable
	block := lzCompress(nil, urls, &table)
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(len(urls)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			block = lzCompress(block[:0], urls, &table)
		}
		b.ReportMetric(float64(len(block))/float64(len(urls)), "ratio")
	})
	b.Run("decompress", func(b *testing.B) {
		out := make([]byte, len(urls))
		b.SetBytes(int64(len(urls)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := lzDecompress(out, block); err != nil {
				b.Fatal(err)
			}
		}
	})
}
