package core

import (
	"sync/atomic"

	"gofusion/internal/catalog"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
)

// planCache memoizes optimized logical plans of repeated queries, keyed
// on the print-stable SQL normalization plus every session knob that
// changes planning (see SessionContext.planCacheKey). A hit skips
// parsing-adjacent work, logical planning, and the optimizer pipeline;
// physical planning always reruns, because physical plans embed one-shot
// per-execution state (prepared ScanResults whose partitions may each be
// opened at most once), so a cached physical plan could never safely be
// executed twice. Re-lowering per execution is what makes cached plans
// re-instantiable: every execution gets fresh streams, fresh exchanges,
// and fresh metrics from the same immutable optimized logical plan.
//
// Entries record the write stamp of every table their planning looked up
// (see tableStamps): a logical plan holds resolved TableProvider
// snapshots, so a registration or write of any table it read (DDL,
// INSERT, COPY, stream append) makes the entry stale, while writes to
// other tables leave it valid. A stale entry is a miss; it stays resident
// until the re-plan's put overwrites it or it is evicted.
type planCache struct {
	lru *memory.LRU[string, *planEntry]

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// planEntry is immutable once cached: put replaces, never edits, so a
// caller may keep one after the lock is released.
type planEntry struct {
	tables tableStamps
	plan   logical.Plan
}

// PlanCacheStats is a snapshot of plan-cache activity.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
}

// defaultPlanCacheEntries bounds the cache when the session config does
// not set PlanCacheEntries.
const defaultPlanCacheEntries = 256

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheEntries
	}
	return &planCache{lru: memory.NewLRU[string, *planEntry](capacity)}
}

// get returns the cached entry for key if every table it was planned over
// still has the stamp it recorded in cat; a stale entry is a miss and
// counts as an invalidation. The stamps are checked after the LRU's lock
// is released: a lookup in a schema that is not a MemorySchema calls into
// its provider.
func (pc *planCache) get(key string, cat *catalog.MemoryCatalog) (*planEntry, bool) {
	ent, ok := pc.lru.Get(key)
	if ok && ent.tables.current(cat) {
		pc.hits.Add(1)
		return ent, true
	}
	pc.misses.Add(1)
	if ok {
		pc.invalidations.Add(1)
	}
	return nil, false
}

// put memoizes an optimized plan together with the table stamps its
// planning recorded, evicting the least recently used entry past
// capacity.
func (pc *planCache) put(key string, tables tableStamps, plan logical.Plan) {
	pc.lru.Put(key, &planEntry{tables: tables, plan: plan})
}

// Stats snapshots hit/miss/invalidation counters and residency.
func (pc *planCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Invalidations: pc.invalidations.Load(),
		Entries:       pc.lru.Len(),
	}
}
