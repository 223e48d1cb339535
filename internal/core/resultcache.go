package core

import (
	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/memory"
)

// cachedResult is one memoized read-only query result. Batches are
// immutable shared views: every Collect of the same query hands back the
// same slice, so consumers must not mutate them (the engine's arrays are
// immutable by contract, making this safe).
type cachedResult struct {
	// tables are the stamps of the tables the result was computed from;
	// a lookup after any of them was registered or written is a miss.
	tables  tableStamps
	batches []*arrow.RecordBatch
}

// resultCache memoizes whole results of repeated identical read-only
// queries, keyed on the print-stable SQL normalization plus session
// knobs (see SessionContext.cacheKey). It is byte-budgeted and
// pool-charged like the page cache.
type resultCache struct {
	lru *memory.SizedLRU[string, cachedResult]
}

func newResultCache(maxBytes int64, pool memory.Pool) *resultCache {
	return &resultCache{lru: memory.NewSizedLRU[string, cachedResult](maxBytes, pool, "result-cache")}
}

// get returns the cached batches for key if every table they were
// computed from still has its recorded stamp in cat; a stale
// entry is a miss (it stays resident until evicted or overwritten by the
// fresh result).
func (rc *resultCache) get(key string, cat *catalog.MemoryCatalog) ([]*arrow.RecordBatch, bool) {
	ent, ok := rc.lru.Get(key)
	if !ok || !ent.tables.current(cat) {
		return nil, false
	}
	return ent.batches, true
}

// put memoizes a result computed from the tables whose stamps are given.
func (rc *resultCache) put(key string, tables tableStamps, batches []*arrow.RecordBatch) {
	var size int64
	for _, b := range batches {
		size += arrow.BatchSize(b)
	}
	rc.lru.Put(key, cachedResult{tables: tables, batches: batches}, size)
}

func (rc *resultCache) stats() memory.SizedStats { return rc.lru.Stats() }

func (rc *resultCache) close() { rc.lru.Close() }
