package parquet

import (
	"gofusion/internal/arrow"
	"gofusion/internal/memory"
)

// PageKey identifies one decoded page of one file version. File is the
// reader's content fingerprint (path|size|mtime), so an overwritten file
// keys new entries and stale ones age out of the LRU untouched.
type PageKey struct {
	File     string
	RowGroup int
	Col      int
	// Page is the data page index within the column chunk.
	Page int
}

// PageCache is the process-wide cache of decoded pages: a byte-budget,
// memory-pool-charged LRU of immutable arrow arrays shared across every
// scanner (and session) that reads the same file version. Concurrent
// decodes of one page collapse into a single load (singleflight), so the
// morsel and static scan paths deduplicate in-flight work.
//
// Cached arrays are shared views: consumers must never mutate their
// buffers. A scan passes a page whose rows all survive downstream as the
// cached array itself; eviction only drops the cache's reference, so such
// a batch stays valid, and an operator that buffers it charges it like any
// other batch.
type PageCache struct {
	lru *memory.SizedLRU[PageKey, arrow.Array]
}

// NewPageCache returns a page cache bounded to maxBytes. When pool is
// non-nil every resident byte is charged to it, so cached pages compete
// with running operators and evict under memory pressure.
func NewPageCache(maxBytes int64, pool memory.Pool) *PageCache {
	return &PageCache{lru: memory.NewSizedLRU[PageKey, arrow.Array](maxBytes, pool, "page-cache")}
}

// CachedPage returns the shared decoded array for key, running load on a
// miss. The hit result reports whether this caller's load was skipped
// (resident entry or joined in-flight decode). The returned array is an
// immutable shared view owned by the cache: callers may read it and wrap
// it in batches, but must not mutate its buffers or assume it stays
// resident.
func (pc *PageCache) CachedPage(key PageKey, load func() (arrow.Array, error)) (arrow.Array, bool, error) {
	return pc.lru.GetOrLoad(key, func() (arrow.Array, int64, error) {
		arr, err := load()
		if err != nil {
			return nil, 0, err
		}
		return arr, arrow.ArraySize(arr), nil
	})
}

// Stats returns the cache's cumulative counters and current residency.
func (pc *PageCache) Stats() memory.SizedStats { return pc.lru.Stats() }

// Clear drops all resident pages (tests and invalidation).
func (pc *PageCache) Clear() { pc.lru.Clear() }

// Close drops resident pages and frees the pool reservation.
func (pc *PageCache) Close() { pc.lru.Close() }
