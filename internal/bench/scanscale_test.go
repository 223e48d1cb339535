package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/parquet"
)

// scanScaleFile writes one ClickBench-shaped GPQ file (high-cardinality
// UserID, skewed URL, RegionID, counters) with many row groups, so scan
// scaling is visible within a single file.
func scanScaleFile(b *testing.B, rows, rowGroupRows int) string {
	b.Helper()
	schema := arrow.NewSchema(
		arrow.NewField("UserID", arrow.Int64, false),
		arrow.NewField("URL", arrow.String, false),
		arrow.NewField("RegionID", arrow.Int32, false),
		arrow.NewField("Clicks", arrow.Int64, false),
	)
	var batches []*arrow.RecordBatch
	const chunk = 32 * 1024
	seed := uint64(42)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	for start := 0; start < rows; start += chunk {
		n := chunk
		if start+n > rows {
			n = rows - start
		}
		ub := arrow.NewNumericBuilder[int64](arrow.Int64)
		sb := arrow.NewStringBuilder(arrow.String)
		rb := arrow.NewNumericBuilder[int32](arrow.Int32)
		cb := arrow.NewNumericBuilder[int64](arrow.Int64)
		for i := 0; i < n; i++ {
			r := next()
			ub.Append(int64(r % 1_000_000))
			// Zipf-ish URL skew: a few hot pages, a long tail.
			if r%8 < 5 {
				sb.Append(fmt.Sprintf("http://example.com/hot/%d", r%16))
			} else {
				sb.Append(fmt.Sprintf("http://example.com/page/%d?q=%d", r%50_000, r%997))
			}
			rb.Append(int32(r % 5000))
			cb.Append(int64(r % 100))
		}
		batches = append(batches, arrow.NewRecordBatch(schema,
			[]arrow.Array{ub.Finish(), sb.Finish(), rb.Finish(), cb.Finish()}))
	}
	path := filepath.Join(b.TempDir(), "hits-scale.gpq")
	opts := parquet.DefaultWriterOptions()
	opts.RowGroupRows = rowGroupRows
	if err := parquet.WriteFile(path, schema, batches, opts); err != nil {
		b.Fatal(err)
	}
	return path
}

// drainPartitioned opens every partition concurrently and counts rows.
func drainPartitioned(b *testing.B, res *catalog.ScanResult) int64 {
	b.Helper()
	var total atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, res.Partitions)
	for p := 0; p < res.Partitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s, err := res.Open(p)
			if err != nil {
				errs[p] = err
				return
			}
			defer s.Close()
			for {
				batch, err := s.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[p] = err
					return
				}
				total.Add(int64(batch.NumRows()))
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	return total.Load()
}

// BenchmarkScanScaling measures a full scan of one multi-row-group file
// at increasing partition counts; the row-group-granular work units plus
// readahead should scale throughput with cores.
func BenchmarkScanScaling(b *testing.B) {
	const rows = 512 * 1024
	path := scanScaleFile(b, rows, 32*1024) // 16 row groups
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := catalog.NewGPQTable([]string{path})
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, parts := range counts {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			b.SetBytes(st.Size())
			for i := 0; i < b.N; i++ {
				res, err := tbl.Scan(catalog.ScanRequest{Limit: -1, Partitions: parts, Readahead: 2})
				if err != nil {
					b.Fatal(err)
				}
				if got := drainPartitioned(b, res); got != rows {
					b.Fatalf("rows = %d, want %d", got, rows)
				}
			}
		})
	}
}
