package parquet

import (
	"io"
	"path/filepath"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/memory"
)

// distinctPages counts the page-cache keys a full scan of the file can
// touch: every data page of every column chunk.
func distinctPages(meta *FileMetadata) int {
	n := 0
	for _, rg := range meta.footer.RowGroups {
		for _, ch := range rg.Columns {
			n += len(ch.Pages)
		}
	}
	return n
}

// TestPageCacheConcurrentExactlyOnce hammers one file with concurrent
// cold scanners sharing a cache and asserts singleflight collapsed every
// decode: loader executions equal the number of distinct pages, not
// scanners x pages.
func TestPageCacheConcurrentExactlyOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 6000, WriterOptions{RowGroupRows: 2000, PageRows: 500})

	pc := NewPageCache(64<<20, nil)
	defer pc.Close()

	fr0, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr0.Close()
	want := distinctPages(fr0.Metadata())
	ref := func() *arrow.RecordBatch {
		sc, err := fr0.Scan(ScanOptions{Limit: -1})
		if err != nil {
			t.Fatal(err)
		}
		return scanAll(t, sc)
	}()

	const scanners = 8
	var wg sync.WaitGroup
	got := make([]*arrow.RecordBatch, scanners)
	errs := make([]error, scanners)
	for i := 0; i < scanners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr, err := OpenFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			defer fr.Close()
			sc, err := fr.Scan(ScanOptions{Limit: -1, Cache: pc})
			if err != nil {
				errs[i] = err
				return
			}
			var batches []*arrow.RecordBatch
			for {
				b, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs[i] = err
					return
				}
				batches = append(batches, b)
			}
			out, err := compute.ConcatBatches(sc.Schema(), batches)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = out
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scanner %d: %v", i, err)
		}
	}
	st := pc.Stats()
	if int(st.Loads) != want {
		t.Fatalf("loader ran %d times, want exactly %d (one per distinct page)", st.Loads, want)
	}
	if st.Hits == 0 {
		t.Fatal("concurrent scanners recorded zero cache hits")
	}
	for i, b := range got {
		if b.NumRows() != ref.NumRows() {
			t.Fatalf("scanner %d: rows %d != %d", i, b.NumRows(), ref.NumRows())
		}
		for c := 0; c < ref.NumCols(); c++ {
			for r := 0; r < ref.NumRows(); r += 53 {
				if !b.Column(c).GetScalar(r).Equal(ref.Column(c).GetScalar(r)) {
					t.Fatalf("scanner %d: col %d row %d differs from uncached scan", i, c, r)
				}
			}
		}
	}
}

// TestPageCacheEvictionTightBudget scans through a cache far smaller than
// the file under a bounded pool: entries must cycle (evictions observed),
// residency must respect both budgets, results must stay correct, and
// Close must return every charged byte.
func TestPageCacheEvictionTightBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 8000, WriterOptions{RowGroupRows: 1000, PageRows: 250})

	pool := memory.NewGreedyPool(32 << 10)
	pc := NewPageCache(16<<10, pool)

	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	var want *arrow.RecordBatch
	for pass := 0; pass < 3; pass++ {
		sc, err := fr.Scan(ScanOptions{Limit: -1, Cache: pc})
		if err != nil {
			t.Fatal(err)
		}
		got := scanAll(t, sc)
		if want == nil {
			want = got
			continue
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("pass %d: rows %d != %d", pass, got.NumRows(), want.NumRows())
		}
		for c := 0; c < want.NumCols(); c++ {
			for r := 0; r < want.NumRows(); r += 97 {
				if !got.Column(c).GetScalar(r).Equal(want.Column(c).GetScalar(r)) {
					t.Fatalf("pass %d: col %d row %d drifted under eviction", pass, c, r)
				}
			}
		}
	}
	st := pc.Stats()
	if st.Evictions == 0 {
		t.Fatal("tight budget produced zero evictions")
	}
	if st.Bytes > 16<<10 {
		t.Fatalf("resident %d bytes exceed 16KiB budget", st.Bytes)
	}
	if pool.Reserved() != st.Bytes {
		t.Fatalf("pool charge %d != resident bytes %d", pool.Reserved(), st.Bytes)
	}
	pc.Close()
	if pool.Reserved() != 0 {
		t.Fatalf("Close leaked %d pool bytes", pool.Reserved())
	}
}

// TestMmapFallbackEquivalence compares a (possibly) mmap-backed scan with
// the forced io.ReaderAt path: identical rows, and on unix the default
// open actually maps the file.
func TestMmapFallbackEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 5000, WriterOptions{RowGroupRows: 2000, PageRows: 500})

	frA, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer frA.Close()
	scA, err := frA.Scan(ScanOptions{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := scanAll(t, scA)
	if mmapSupported() && frA.mm == nil {
		t.Fatal("mmap supported but file was not mapped")
	}

	t.Setenv("GOFUSION_NO_MMAP", "1")
	frB, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer frB.Close()
	if frB.mm != nil {
		t.Fatal("GOFUSION_NO_MMAP set but file was mapped")
	}
	scB, err := frB.Scan(ScanOptions{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := scanAll(t, scB)

	if a.NumRows() != b.NumRows() {
		t.Fatalf("rows: mmap %d vs readerat %d", a.NumRows(), b.NumRows())
	}
	for c := 0; c < a.NumCols(); c++ {
		for r := 0; r < a.NumRows(); r++ {
			if !a.Column(c).GetScalar(r).Equal(b.Column(c).GetScalar(r)) {
				t.Fatalf("col %d row %d: mmap and readerat scans disagree", c, r)
			}
		}
	}
}

// TestFingerprintChangesOnRewrite ensures the page-cache key namespace
// rotates when a file is rewritten: a stale cache entry can never serve
// bytes from the old file contents.
func TestFingerprintChangesOnRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 1000, DefaultWriterOptions())
	fr1, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fp1 := fr1.Fingerprint()
	fr1.Close()

	writeTestFile(t, path, 1500, DefaultWriterOptions())
	fr2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr2.Close()
	if fp1 == fr2.Fingerprint() {
		t.Fatalf("fingerprint %q did not change after rewrite", fp1)
	}
}

// TestFooterCacheKeyedByVersion: a second open of an unchanged file takes
// its footer from the cache, and a file rewritten in place with other
// contents opens with its new footer.
func TestFooterCacheKeyedByVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 1000, DefaultWriterOptions())
	open := func(wantRows int64) {
		t.Helper()
		fr, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fr.Close()
		if fr.NumRows() != wantRows {
			t.Fatalf("rows = %d, want %d", fr.NumRows(), wantRows)
		}
	}
	open(1000)
	before := FooterCacheStats()
	open(1000)
	if st := FooterCacheStats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("reopen of an unchanged file: stats %+v -> %+v, want one hit", before, st)
	}
	writeTestFile(t, path, 1500, DefaultWriterOptions())
	open(1500)
}
