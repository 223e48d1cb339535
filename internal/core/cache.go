package core

import (
	"sync/atomic"

	"gofusion/internal/catalog"
	"gofusion/internal/memory"
)

// The budgets of the session's caches over catalog tables.
const (
	// planCacheEntries bounds the plan cache; a plan costs 1.
	planCacheEntries = 256
	// resultCacheBytes bounds the result cache; a result costs its bytes.
	resultCacheBytes = 64 << 20
)

// stampedCache memoizes what a query computed from catalog tables: its
// optimized logical plan (the plan cache) or its whole result (the result
// cache), keyed on the print-stable SQL normalization plus every session
// knob that changes planning (see SessionContext.cacheKey).
//
// The plan cache skips planning and the optimizer; physical planning
// always reruns, because physical plans embed one-shot per-execution state
// (prepared ScanResults whose partitions may each be opened at most once).
// Re-lowering per execution is what makes a cached plan re-instantiable:
// every execution gets fresh streams, exchanges and metrics from the same
// immutable optimized plan. Cached results are immutable shared views:
// every Collect of the same query hands back the same batches, so
// consumers must not mutate them.
//
// Every entry records the write stamp of each table its planning looked up
// (see tableStamps). A registration or write of one of those tables (DDL,
// INSERT, COPY, stream append) makes the entry stale, while writes to
// other tables leave it valid. A stale entry is a miss and an
// invalidation; it stays resident until the re-planned put overwrites it
// or it is evicted.
type stampedCache[V any] struct {
	lru *memory.SizedLRU[string, stampedEntry[V]]

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// stampedEntry is immutable once cached: put replaces, never edits.
type stampedEntry[V any] struct {
	tables tableStamps
	val    V
}

// PlanCacheStats is a snapshot of a stamped cache's activity (the plan
// cache's /stats shape).
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
}

// newStampedCache returns a cache bounded to budget, charging resident
// cost to pool when it is not nil.
func newStampedCache[V any](budget int64, pool memory.Pool, name string) *stampedCache[V] {
	return &stampedCache[V]{lru: memory.NewSizedLRU[string, stampedEntry[V]](budget, pool, name)}
}

// get returns the entry for key if every table it was computed from still
// has the stamp it recorded in cat. The stamps are checked after the LRU's
// lock is released: a lookup in a schema that is not a MemorySchema calls
// into its provider.
func (c *stampedCache[V]) get(key string, cat *catalog.MemoryCatalog) (stampedEntry[V], bool) {
	ent, ok := c.lru.Get(key)
	if ok && ent.tables.current(cat) {
		c.hits.Add(1)
		return ent, true
	}
	c.misses.Add(1)
	if ok {
		c.invalidations.Add(1)
	}
	return stampedEntry[V]{}, false
}

// put memoizes val, computed from the tables whose stamps are given, at
// the given cost, evicting the least recently used entries past the
// budget.
func (c *stampedCache[V]) put(key string, tables tableStamps, val V, cost int64) {
	c.lru.Put(key, stampedEntry[V]{tables: tables, val: val}, cost)
}

// Stats snapshots the hit/miss/invalidation counters and residency.
func (c *stampedCache[V]) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.lru.Len(),
	}
}
