package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
)

// memTable returns the MemTable registered as name.
func memTable(t *testing.T, s *SessionContext, name string) *catalog.MemTable {
	t.Helper()
	tp, _, err := lookupTable(s.Catalog(), name)
	if err != nil {
		t.Fatal(err)
	}
	mt, ok := tp.(*catalog.MemTable)
	if !ok {
		t.Fatalf("%s is a %T, want a MemTable", name, tp)
	}
	return mt
}

// scanColumn drains every partition of an unprojected scan in partition
// order and returns column col, with the partition count.
func scanColumn(t *testing.T, tp catalog.TableProvider, col int) ([]int64, int) {
	t.Helper()
	res, err := tp.Scan(catalog.ScanRequest{Limit: catalog.NoLimit})
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for p := 0; p < res.Partitions; p++ {
		out = append(out, drainColumn(t, res, p, col)...)
	}
	return out, res.Partitions
}

func drainColumn(t *testing.T, res *catalog.ScanResult, p, col int) []int64 {
	t.Helper()
	st, err := res.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []int64
	for {
		b, err := st.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, int64Col(t, b, col)...)
	}
}

// TestInsertCompactsMemTableTail: 1 000 single-row INSERTs fill the
// table's last partition up to BatchRows rows before starting another, so
// the table ends with about one partition per BatchRows rows, in insert
// order; a scan opened before the INSERTs keeps its snapshot; and the
// grown table answers alike at one and four partitions.
func TestInsertCompactsMemTableTail(t *testing.T) {
	const batchRows, inserts = 64, 1000
	s := NewSession(SessionConfig{BatchRows: batchRows})
	defer s.Close()
	schema := streamSchema()
	if err := s.RegisterBatches("t", schema, []*arrow.RecordBatch{int64Batch(schema, []int64{0, 1, 2}, []int64{0, 1, 2})}); err != nil {
		t.Fatal(err)
	}
	snapshot, err := memTable(t, s, "t").Scan(catalog.ScanRequest{Limit: catalog.NoLimit, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 3+inserts; i++ {
		if _, err := mustCollect(s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%7)); err != nil {
			t.Fatal(err)
		}
	}

	if got := drainColumn(t, snapshot, 0, 0); fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("scan opened before the INSERTs read %v, want its snapshot [0 1 2]", got)
	}
	mt := memTable(t, s, "t")
	if n := mt.Statistics().NumRows; n != 3+inserts {
		t.Fatalf("NumRows = %d, want %d", n, 3+inserts)
	}
	got, parts := scanColumn(t, mt, 0)
	if limit := (3+inserts+batchRows-1)/batchRows + 1; parts > limit {
		t.Errorf("%d partitions after %d single-row INSERTs, want at most %d", parts, inserts, limit)
	}
	if len(got) != 3+inserts {
		t.Fatalf("scanned %d rows, want %d", len(got), 3+inserts)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d holds %d: rows are out of insert order", i, v)
		}
	}

	const query = "SELECT e, count(*) AS n, sum(a) AS s FROM t GROUP BY e ORDER BY e"
	one := q(t, s, query)
	cfg := s.Config()
	cfg.TargetPartitions = 4
	expect(t, q(t, s.WithConfig(cfg), query), one, true)
}

// TestConcurrentInsertsKeepEveryRow: INSERTs racing through one session
// each commit their rows. The write lock spans resolve, append and
// register, so no INSERT grows a snapshot another has already replaced.
func TestConcurrentInsertsKeepEveryRow(t *testing.T) {
	const writers, perWriter = 4, 200
	s := NewSession(SessionConfig{})
	defer s.Close()
	schema := streamSchema()
	if err := s.RegisterBatches("t", schema, []*arrow.RecordBatch{int64Batch(schema, []int64{-1}, []int64{0})}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := mustCollect(s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, w)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := fmt.Sprint(1 + writers*perWriter)
	expect(t, q(t, s, "SELECT count(*) FROM t"), []string{want}, true)
}

// TestConcurrentCreateTableOneWins: of racing CREATE TABLEs of one name,
// exactly one succeeds and the others fail with "already exists".
func TestConcurrentCreateTableOneWins(t *testing.T) {
	s := newTestSession(t, 1)
	defer s.Close()
	const racers = 4
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.SQL(fmt.Sprintf("CREATE TABLE c AS SELECT id FROM emp WHERE id <= %d", i+1))
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !strings.Contains(err.Error(), "already exists"):
			t.Errorf("losing CREATE TABLE failed with %v, want already exists", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d CREATE TABLEs succeeded, want 1", won)
	}
}
