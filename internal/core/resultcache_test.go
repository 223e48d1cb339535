package core

import (
	"testing"
)

// newCachingSession is newTestSession with the result cache enabled.
func newCachingSession(t *testing.T) *SessionContext {
	t.Helper()
	base := newTestSession(t, 2)
	t.Cleanup(base.Close)
	cfg := base.Config()
	cfg.EnableResultCache = true
	s := base.WithConfig(cfg)
	t.Cleanup(s.Close)
	return s
}

func collectMetrics(t *testing.T, s *SessionContext, query string) ([]string, *QueryMetrics) {
	t.Helper()
	df, err := s.SQL(query)
	if err != nil {
		t.Fatalf("planning %q: %v", query, err)
	}
	_, qm, err := df.CollectWithMetrics()
	if err != nil {
		t.Fatalf("executing %q: %v", query, err)
	}
	return q(t, s, query), qm
}

func TestResultCacheRepeatedQueryHits(t *testing.T) {
	s := newCachingSession(t)
	const query = "SELECT name, salary FROM emp WHERE salary > 150 ORDER BY name"

	rows1, qm1 := collectMetrics(t, s, query)
	if qm1.ResultCacheHit {
		t.Fatal("first execution reported a result-cache hit")
	}
	rows2, qm2 := collectMetrics(t, s, query)
	if !qm2.ResultCacheHit {
		t.Fatal("second identical execution missed the result cache")
	}
	expect(t, rows2, rows1, true)

	// A different query (even by one token) is its own entry.
	_, qm3 := collectMetrics(t, s, "SELECT name, salary FROM emp WHERE salary > 200 ORDER BY name")
	if qm3.ResultCacheHit {
		t.Fatal("different query hit the cache")
	}
}

func TestResultCacheDisabledByDefault(t *testing.T) {
	s := newTestSession(t, 2)
	defer s.Close()
	const query = "SELECT count(*) FROM emp"
	q(t, s, query)
	df, err := s.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	_, qm, err := df.CollectWithMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if qm.ResultCacheHit || qm.ResultCacheHits != 0 {
		t.Fatalf("result cache active without EnableResultCache: %+v", qm)
	}
}

// TestResultCacheInvalidatedByCreateTable: a cached result goes stale when
// one of the tables it read is created anew, and stays valid across the
// creation of a table it did not read.
func TestResultCacheInvalidatedByCreateTable(t *testing.T) {
	s := newCachingSession(t)
	const query = "SELECT count(*) FROM emp"

	collectMetrics(t, s, query)
	if _, qm := collectMetrics(t, s, query); !qm.ResultCacheHit {
		t.Fatal("warm query should hit before DDL")
	}

	if _, err := s.SQL("CREATE TABLE high_paid AS SELECT name, salary FROM emp WHERE salary > 150"); err != nil {
		t.Fatal(err)
	}
	if _, qm := collectMetrics(t, s, query); !qm.ResultCacheHit {
		t.Fatal("creating an unrelated table invalidated the result over emp")
	}
	expect(t, q(t, s, "SELECT count(*) FROM high_paid"), []string{"3"}, true)

	s.DeregisterTable("emp")
	if _, err := s.SQL("CREATE TABLE emp AS SELECT name FROM high_paid WHERE salary > 200"); err != nil {
		t.Fatal(err)
	}
	rows, qm := collectMetrics(t, s, query)
	if qm.ResultCacheHit {
		t.Fatal("re-creating emp did not invalidate the result over it")
	}
	expect(t, rows, []string{"2"}, true)
}

func TestResultCacheInvalidatedByInsert(t *testing.T) {
	s := newCachingSession(t)
	const query = "SELECT count(*) FROM emp"

	expect(t, q(t, s, query), []string{"6"}, true)
	if _, qm := collectMetrics(t, s, query); !qm.ResultCacheHit {
		t.Fatal("warm query should hit before INSERT")
	}

	if _, err := s.SQL("INSERT INTO emp SELECT * FROM emp WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	rows, qm := collectMetrics(t, s, query)
	if qm.ResultCacheHit {
		t.Fatal("INSERT did not invalidate the result cache")
	}
	expect(t, rows, []string{"7"}, true)

	// The fresh count becomes the new cached entry.
	if _, qm := collectMetrics(t, s, query); !qm.ResultCacheHit {
		t.Fatal("post-INSERT rerun should hit again")
	}
}

func TestCreateTableAndInsertErrors(t *testing.T) {
	s := newTestSession(t, 1)
	defer s.Close()
	if _, err := s.SQL("CREATE TABLE emp AS SELECT * FROM emp"); err == nil {
		t.Fatal("CREATE TABLE over an existing table should fail")
	}
	if _, err := s.SQL("INSERT INTO missing SELECT * FROM emp"); err == nil {
		t.Fatal("INSERT into a missing table should fail")
	}
	// Shape mismatch: emp has 5 columns.
	if _, err := s.SQL("INSERT INTO emp SELECT id FROM emp"); err == nil {
		t.Fatal("INSERT with mismatched column count should fail")
	}
}
