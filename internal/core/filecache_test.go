package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/parquet"
)

// writeRows writes a GPQ file at path (replacing any file there) holding
// rows a = e = vals.
func writeRows(t *testing.T, path string, vals ...int64) {
	t.Helper()
	schema := streamSchema()
	if err := parquet.WriteFile(path, schema, []*arrow.RecordBatch{int64Batch(schema, vals, vals)},
		parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
}

// countSum runs SELECT count(*), sum(a) over table t.
func countSum(t *testing.T, s *SessionContext) (count, sum int64) {
	t.Helper()
	out, err := mustCollect(s, "SELECT count(*) AS c, sum(a) AS s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	return out[0].Column(0).GetScalar(0).AsInt64(), out[0].Column(1).GetScalar(0).AsInt64()
}

// TestRegisterGPQDirSeesAddedFile: registering a directory again lists
// it again, so a file added in between is part of the new table.
func TestRegisterGPQDirSeesAddedFile(t *testing.T) {
	dir := t.TempDir()
	writeRows(t, filepath.Join(dir, "a.gpq"), 1, 2, 3)
	s := NewSession(SessionConfig{})
	defer s.Close()
	if err := s.RegisterGPQDir("t", dir); err != nil {
		t.Fatal(err)
	}
	if c, _ := countSum(t, s); c != 3 {
		t.Fatalf("count = %d, want 3", c)
	}
	writeRows(t, filepath.Join(dir, "b.gpq"), 4, 5, 6)
	if err := s.RegisterGPQDir("t", dir); err != nil {
		t.Fatal(err)
	}
	if c, sum := countSum(t, s); c != 6 || sum != 21 {
		t.Fatalf("after adding a file: count = %d, sum = %d, want 6 and 21", c, sum)
	}
}

// TestRegisterGPQFileRewrittenInPlace: a file rewritten in place is a new
// file version, so registering it again reads its new footer, not the one
// cached for the old contents.
func TestRegisterGPQFileRewrittenInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeRows(t, path, 1, 2)
	s := NewSession(SessionConfig{TargetPartitions: 2})
	defer s.Close()
	if err := s.RegisterGPQ("t", path); err != nil {
		t.Fatal(err)
	}
	if c, sum := countSum(t, s); c != 2 || sum != 3 {
		t.Fatalf("count = %d, sum = %d, want 2 and 3", c, sum)
	}
	writeRows(t, path, 10, 20, 30, 40, 50)
	if err := s.RegisterGPQ("t", path); err != nil {
		t.Fatal(err)
	}
	if c, sum := countSum(t, s); c != 5 || sum != 150 {
		t.Fatalf("after the rewrite: count = %d, sum = %d, want 5 and 150", c, sum)
	}
}

// TestCopyIntoStagingFileRewrittenBetweenCopies: two COPYs from one
// staging path, rewritten in place between them, each load what the file
// holds when they run.
func TestCopyIntoStagingFileRewrittenBetweenCopies(t *testing.T) {
	stage := filepath.Join(t.TempDir(), "stage.gpq")
	s := NewSession(SessionConfig{})
	defer s.Close()
	schema := streamSchema()
	if err := s.RegisterBatches("t", schema, []*arrow.RecordBatch{int64Batch(schema, []int64{1}, []int64{1})}); err != nil {
		t.Fatal(err)
	}
	copyStage := func() {
		t.Helper()
		if _, err := mustCollect(s, fmt.Sprintf("COPY INTO t FROM '%s'", stage)); err != nil {
			t.Fatal(err)
		}
	}
	writeRows(t, stage, 2, 3)
	copyStage()
	writeRows(t, stage, 4, 5, 6)
	copyStage()
	if c, sum := countSum(t, s); c != 6 || sum != 21 {
		t.Fatalf("count = %d, sum = %d, want 6 and 21", c, sum)
	}
}
