// Package memory implements the engine's execution-environment resource
// APIs (paper Sections 5.5.4 and 7.4): MemoryPool with unbounded,
// first-come first-served (greedy) and per-query child pools, DiskManager
// for reference-counted spill files, and SizedLRU, the one cache every
// engine cache runs on. Systems embedding the engine substitute their own
// implementations of these interfaces.
package memory

import (
	"fmt"
	"sync"
)

// ErrResourcesExhausted is returned (wrapped) when a reservation would
// exceed the pool's limit; operators respond by spilling to disk.
type ErrResourcesExhausted struct {
	Consumer  string
	Requested int64
	Limit     int64
	Used      int64
}

func (e *ErrResourcesExhausted) Error() string {
	return fmt.Sprintf("memory: cannot grow %q by %d bytes: %d of %d bytes in use",
		e.Consumer, e.Requested, e.Used, e.Limit)
}

// Pool arbitrates memory between concurrently running operators. Operators
// cooperatively report large allocations (hash tables, sort buffers)
// through Reservations; small ephemeral allocations are not tracked.
type Pool interface {
	// grow requests n more bytes for the reservation.
	grow(r *Reservation, n int64) error
	// shrink returns n bytes from the reservation.
	shrink(r *Reservation, n int64)
	// Reserved returns the total bytes currently reserved.
	Reserved() int64
	// ReservedPeak returns the high-water mark of Reserved over the
	// pool's lifetime (surfaced by EXPLAIN ANALYZE / CollectWithMetrics).
	ReservedPeak() int64
}

// Reservation tracks one operator's share of a pool.
type Reservation struct {
	name string
	pool Pool
	size int64
}

// NewReservation creates an empty reservation against the pool.
func NewReservation(pool Pool, name string) *Reservation {
	r := &Reservation{name: name, pool: pool}
	sanitizeTrackReservation(r)
	return r
}

// Grow requests n more bytes, returning ErrResourcesExhausted (wrapped)
// when the pool cannot satisfy the request.
func (r *Reservation) Grow(n int64) error {
	if err := r.pool.grow(r, n); err != nil {
		return err
	}
	r.size += n
	return nil
}

// Shrink returns n bytes to the pool.
func (r *Reservation) Shrink(n int64) {
	if n > r.size {
		sanitizeOverShrink(r, n)
		n = r.size
	}
	r.pool.shrink(r, n)
	r.size -= n
}

// Resize grows or shrinks the reservation to exactly n bytes.
func (r *Reservation) Resize(n int64) error {
	if n > r.size {
		return r.Grow(n - r.size)
	}
	r.Shrink(r.size - n)
	return nil
}

// Free releases the whole reservation.
func (r *Reservation) Free() {
	r.Shrink(r.size)
	sanitizeReservationFreed(r)
}

// Size returns the currently reserved bytes.
func (r *Reservation) Size() int64 { return r.size }

// UnboundedPool is a Pool without a limit; it only tracks usage.
type UnboundedPool struct {
	mu   sync.Mutex
	used int64
	peak int64
}

// NewUnboundedPool returns a pool that never rejects.
func NewUnboundedPool() *UnboundedPool { return &UnboundedPool{} }

func (p *UnboundedPool) grow(_ *Reservation, n int64) error {
	p.mu.Lock()
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	p.mu.Unlock()
	return nil
}

func (p *UnboundedPool) shrink(_ *Reservation, n int64) {
	p.mu.Lock()
	p.used -= n
	p.mu.Unlock()
}

// Reserved returns the total tracked bytes.
func (p *UnboundedPool) Reserved() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// ReservedPeak returns the high-water mark of tracked bytes.
func (p *UnboundedPool) ReservedPeak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// GreedyPool enforces a process-wide limit on a first-come first-served
// basis without attempting fairness between operators.
type GreedyPool struct {
	mu    sync.Mutex
	limit int64
	used  int64
	peak  int64
}

// NewGreedyPool returns a pool with the given byte limit.
func NewGreedyPool(limit int64) *GreedyPool { return &GreedyPool{limit: limit} }

func (p *GreedyPool) grow(r *Reservation, n int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used+n > p.limit {
		return fmt.Errorf("%w", &ErrResourcesExhausted{Consumer: r.name, Requested: n, Limit: p.limit, Used: p.used})
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

func (p *GreedyPool) shrink(_ *Reservation, n int64) {
	p.mu.Lock()
	p.used -= n
	p.mu.Unlock()
}

// Reserved returns the total reserved bytes.
func (p *GreedyPool) Reserved() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// ReservedPeak returns the high-water mark of reserved bytes.
func (p *GreedyPool) ReservedPeak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Limit returns the pool limit.
func (p *GreedyPool) Limit() int64 { return p.limit }
