package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"gofusion/internal/catalog"
	"gofusion/internal/logical"
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
// other tables leave it valid. Stale entries are dropped on lookup.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// planEntry is immutable once cached: put replaces, never edits, so a
// caller may keep one after the lock is released.
type planEntry struct {
	key    string
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
	return &planCache{cap: capacity, ll: list.New(), byKey: map[string]*list.Element{}}
}

// get returns the cached entry for key if every table it was planned over
// still has the stamp it recorded in cat. Otherwise the entry is dropped
// (the provider snapshots inside it are stale) and counted as an
// invalidation. The stamps are checked after pc.mu is released: a lookup
// in a schema that is not a MemorySchema calls into its provider.
func (pc *planCache) get(key string, cat *catalog.MemoryCatalog) (*planEntry, bool) {
	pc.mu.Lock()
	el, ok := pc.byKey[key]
	var ent *planEntry
	if ok {
		ent = el.Value.(*planEntry)
		pc.ll.MoveToFront(el)
	}
	pc.mu.Unlock()
	if ok && ent.tables.current(cat) {
		pc.hits.Add(1)
		return ent, true
	}
	pc.misses.Add(1)
	if ok {
		pc.mu.Lock()
		if el, still := pc.byKey[key]; still && el.Value == ent {
			pc.ll.Remove(el)
			delete(pc.byKey, key)
			pc.invalidations.Add(1)
		}
		pc.mu.Unlock()
	}
	return nil, false
}

// put memoizes an optimized plan together with the table stamps its
// planning recorded, evicting the least recently used entry past
// capacity.
func (pc *planCache) put(key string, tables tableStamps, plan logical.Plan) {
	ent := &planEntry{key: key, tables: tables, plan: plan}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		el.Value = ent
		pc.ll.MoveToFront(el)
		return
	}
	pc.byKey[key] = pc.ll.PushFront(ent)
	for pc.ll.Len() > pc.cap {
		last := pc.ll.Back()
		pc.ll.Remove(last)
		delete(pc.byKey, last.Value.(*planEntry).key)
	}
}

// Stats snapshots hit/miss/invalidation counters and residency.
func (pc *planCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	n := pc.ll.Len()
	pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Invalidations: pc.invalidations.Load(),
		Entries:       n,
	}
}
