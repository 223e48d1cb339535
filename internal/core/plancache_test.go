package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gofusion/internal/arrow"
)

// renderBatchRows renders a batch the same way the q helper does.
func renderBatchRows(batch *arrow.RecordBatch) []string {
	out := make([]string, batch.NumRows())
	for i := range out {
		var parts []string
		for c := 0; c < batch.NumCols(); c++ {
			parts = append(parts, batch.Column(c).GetScalar(i).String())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// newPlanCachingSession is newTestSession with the plan cache enabled.
func newPlanCachingSession(t *testing.T) *SessionContext {
	t.Helper()
	base := newTestSession(t, 2)
	t.Cleanup(base.Close)
	cfg := base.Config()
	cfg.EnablePlanCache = true
	s := base.WithConfig(cfg)
	t.Cleanup(s.Close)
	return s
}

func planStats(t *testing.T, s *SessionContext) PlanCacheStats {
	t.Helper()
	st, ok := s.PlanCacheStats()
	if !ok {
		t.Fatal("plan cache should be enabled on this session")
	}
	return st
}

func TestPlanCacheRepeatedQueryHits(t *testing.T) {
	s := newPlanCachingSession(t)
	const query = "SELECT name, salary FROM emp WHERE salary > 150 ORDER BY name"

	rows1 := q(t, s, query)
	st := planStats(t, s)
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cold run stats = %+v, want 1 miss 0 hits", st)
	}
	rows2 := q(t, s, query)
	st = planStats(t, s)
	if st.Hits != 1 {
		t.Fatalf("warm run stats = %+v, want 1 hit", st)
	}
	// Cached-plan execution must match the fresh plan's rows exactly.
	expect(t, rows2, rows1, true)

	// A different query text is its own entry.
	q(t, s, "SELECT name FROM emp WHERE salary > 200 ORDER BY name")
	st = planStats(t, s)
	if st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("distinct query stats = %+v, want 2 misses 2 entries", st)
	}
}

func TestPlanCacheDisabledByDefault(t *testing.T) {
	s := newTestSession(t, 2)
	defer s.Close()
	q(t, s, "SELECT count(*) FROM emp")
	if _, ok := s.PlanCacheStats(); ok {
		t.Fatal("plan cache active without EnablePlanCache")
	}
}

func TestPlanCacheCachedPlanReExecutes(t *testing.T) {
	// A cached plan must be executable any number of times: physical
	// lowering reruns per execution, so one-shot scan state is rebuilt.
	s := newPlanCachingSession(t)
	const query = "SELECT dname, count(*) FROM emp JOIN dept ON dept_id = did GROUP BY dname ORDER BY dname"
	want := q(t, s, query)
	for i := 0; i < 3; i++ {
		expect(t, q(t, s, query), want, true)
	}
	if st := planStats(t, s); st.Hits != 3 {
		t.Fatalf("stats = %+v, want 3 hits", st)
	}
}

// TestPlanCacheInvalidatedByDDL: DDL invalidates the plans that looked
// its table up, and only those. Creating an unrelated table leaves a plan
// over emp valid; a query that failed because its table was missing plans
// once the table exists; replacing emp re-plans over the new table.
func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	s := newPlanCachingSession(t)
	const query = "SELECT count(*) FROM emp"

	expect(t, q(t, s, query), []string{"6"}, true)
	q(t, s, query)
	if st := planStats(t, s); st.Hits != 1 {
		t.Fatalf("warm stats = %+v, want 1 hit before DDL", st)
	}

	if _, err := s.SQL("CREATE TABLE high_paid AS SELECT name FROM emp WHERE salary > 150"); err != nil {
		t.Fatal(err)
	}
	expect(t, q(t, s, query), []string{"6"}, true)
	if st := planStats(t, s); st.Hits != 2 || st.Invalidations != 0 {
		t.Fatalf("post-DDL stats = %+v, want the plan over emp to hit", st)
	}

	const later = "SELECT count(*) FROM later"
	if _, err := s.SQL(later); err == nil {
		t.Fatal("a query over a missing table planned")
	}
	if _, err := s.SQL("CREATE TABLE later AS SELECT name FROM emp WHERE salary > 150"); err != nil {
		t.Fatal(err)
	}
	expect(t, q(t, s, later), []string{"3"}, true)
	expect(t, q(t, s, later), []string{"3"}, true)
	if st := planStats(t, s); st.Hits != 3 {
		t.Fatalf("stats = %+v, want the plan over the new table cached", st)
	}

	s.DeregisterTable("emp")
	if _, err := s.SQL("CREATE TABLE emp AS SELECT did AS id FROM dept"); err != nil {
		t.Fatal(err)
	}
	expect(t, q(t, s, query), []string{"3"}, true)
	if st := planStats(t, s); st.Invalidations != 1 || st.Hits != 3 {
		t.Fatalf("post-replace stats = %+v, want 1 invalidation and no new hit", st)
	}
}

// TestPlanCacheStreamAppendInvalidatesOnlyStream: an append to a stream
// table renews that table's stamp in place, so plans over the stream
// re-plan and plans over other tables keep hitting. Only planning is
// exercised: the stream stays unsealed.
func TestPlanCacheStreamAppendInvalidatesOnlyStream(t *testing.T) {
	s := newPlanCachingSession(t)
	if _, err := s.RegisterStream("st", streamSchema(), ""); err != nil {
		t.Fatal(err)
	}
	plan := func(query string) {
		t.Helper()
		if _, err := s.SQL(query); err != nil {
			t.Fatal(err)
		}
	}
	const overStream, overEmp = "SELECT a FROM st WHERE a > 0", "SELECT name FROM emp WHERE id = 2"
	for i := 0; i < 2; i++ {
		plan(overStream)
		plan(overEmp)
	}
	if st := planStats(t, s); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("warm stats = %+v, want 2 misses then 2 hits", st)
	}
	if _, err := mustCollect(s, "INSERT INTO st VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	plan(overEmp)
	if st := planStats(t, s); st.Hits != 3 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want the plan over emp to survive the stream append", st)
	}
	plan(overStream)
	if st := planStats(t, s); st.Hits != 3 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want the plan over the stream invalidated", st)
	}
}

func TestPlanCacheInvalidatedByInsert(t *testing.T) {
	s := newPlanCachingSession(t)
	const query = "SELECT count(*) FROM emp"

	expect(t, q(t, s, query), []string{"6"}, true)
	q(t, s, query)

	if _, err := s.SQL("INSERT INTO emp SELECT * FROM emp WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// The stale plan would still scan the pre-INSERT table snapshot; the
	// invalidated re-plan must observe the appended row.
	expect(t, q(t, s, query), []string{"7"}, true)
	if st := planStats(t, s); st.Invalidations != 1 {
		t.Fatalf("post-INSERT stats = %+v, want 1 invalidation", st)
	}

	// The re-planned entry is warm again.
	expect(t, q(t, s, query), []string{"7"}, true)
	if st := planStats(t, s); st.Hits != 2 {
		t.Fatalf("rerun stats = %+v, want 2 hits", st)
	}
}

func TestPlanCacheInvalidatedByCopy(t *testing.T) {
	s := newPlanCachingSession(t)
	const query = "SELECT count(*) FROM emp"

	expect(t, q(t, s, query), []string{"6"}, true)
	q(t, s, query)

	dir := t.TempDir()
	path := filepath.Join(dir, "extra.csv")
	csv := "id,name,dept_id,salary,hired\n7,gus,10,175.0,2023-04-01\n8,hal,20,225.0,2023-05-01\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL(fmt.Sprintf("COPY INTO emp FROM '%s' FORMAT csv", path)); err != nil {
		t.Fatal(err)
	}
	expect(t, q(t, s, query), []string{"8"}, true)
	if st := planStats(t, s); st.Invalidations != 1 {
		t.Fatalf("post-COPY stats = %+v, want 1 invalidation", st)
	}
}

func TestPreparedStatementReusesPlan(t *testing.T) {
	s := newPlanCachingSession(t)
	ps, err := s.Prepare("SELECT name FROM emp WHERE salary > 150 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for i := 0; i < 3; i++ {
		df, err := ps.Query()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := df.CollectBatch()
		if err != nil {
			t.Fatal(err)
		}
		rows := renderBatchRows(batch)
		if i == 0 {
			first = rows
			expect(t, rows, []string{`"bob"`, `"dan"`, `"eve"`}, true)
		} else {
			expect(t, rows, first, true)
		}
	}
	if st := planStats(t, s); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("prepared stats = %+v, want 1 miss then 2 hits", st)
	}
}

func TestPreparedStatementRejectsNonQuery(t *testing.T) {
	s := newTestSession(t, 1)
	defer s.Close()
	if _, err := s.Prepare("INSERT INTO emp SELECT * FROM emp"); err == nil {
		t.Fatal("Prepare accepted a write statement")
	}
	if _, err := s.Prepare("SELECT FROM nonsense WHERE"); err == nil {
		t.Fatal("Prepare accepted an unparsable statement")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	s := newPlanCachingSession(t)
	for id := 1; id <= planCacheEntries+1; id++ {
		q(t, s, fmt.Sprintf("SELECT name FROM emp WHERE id = %d", id))
	}
	st := planStats(t, s)
	if st.Entries != planCacheEntries {
		t.Fatalf("entries = %d, want capacity %d", st.Entries, planCacheEntries)
	}
	// id=1 was evicted (least recently used): rerunning it misses.
	q(t, s, "SELECT name FROM emp WHERE id = 1")
	if st := planStats(t, s); st.Hits != 0 || st.Misses != planCacheEntries+2 {
		t.Fatalf("post-eviction stats = %+v, want %d misses 0 hits", st, planCacheEntries+2)
	}
	// The last id is still resident.
	q(t, s, fmt.Sprintf("SELECT name FROM emp WHERE id = %d", planCacheEntries+1))
	if st := planStats(t, s); st.Hits != 1 {
		t.Fatalf("resident rerun stats = %+v, want 1 hit", st)
	}
}
