package memory

import (
	"fmt"
	"sync"
)

// ChildPool charges a parent Pool for everything its own reservations
// hold, so many per-query pools can share one process-wide budget: the
// service layer gives every admitted query a ChildPool of the server's
// parent pool, and the parent rejects growth once the queries together
// reach the global budget, regardless of which tenant asks. An optional
// per-child limit additionally caps this child before the parent is
// consulted, so one memory-hungry query is pushed into spilling (or
// failure) before it can starve its neighbors out of the shared budget.
//
// The child charges the parent through an ordinary Reservation, so under
// the sanitize build tag a ChildPool that is never Released shows up as a
// leaked reservation, and the parent's Reserved/ReservedPeak aggregate
// every child exactly like any other consumer.
type ChildPool struct {
	mu    sync.Mutex
	limit int64 // 0 = bounded only by the parent
	used  int64
	peak  int64
	res   *Reservation // this child's charge against the parent
}

// NewChildPool returns a pool that satisfies reservations from parent's
// budget under the given name. limit, when positive, caps this child's
// total before the parent is consulted.
func NewChildPool(parent Pool, name string, limit int64) *ChildPool {
	return &ChildPool{limit: limit, res: NewReservation(parent, name)}
}

func (p *ChildPool) grow(r *Reservation, n int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit > 0 && p.used+n > p.limit {
		return fmt.Errorf("%w", &ErrResourcesExhausted{Consumer: r.name, Requested: n, Limit: p.limit, Used: p.used})
	}
	if err := p.res.Grow(n); err != nil {
		// The parent's error already names the shared budget; keep it so
		// operators spill on it like any ErrResourcesExhausted.
		return err
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

func (p *ChildPool) shrink(_ *Reservation, n int64) {
	p.mu.Lock()
	p.res.Shrink(n)
	p.used -= n
	p.mu.Unlock()
}

// Reserved returns this child's total reserved bytes.
func (p *ChildPool) Reserved() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// ReservedPeak returns this child's high-water mark.
func (p *ChildPool) ReservedPeak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Limit returns the per-child cap (0 = parent-bounded only).
func (p *ChildPool) Limit() int64 { return p.limit }

// Release returns the child's remaining charge to the parent. Call it
// when the query finishes; afterwards the pool must not be grown again.
// With every operator reservation freed first (the engine contract), the
// remaining charge is zero and this only closes out the parent-side
// reservation for the sanitizer.
func (p *ChildPool) Release() {
	p.mu.Lock()
	p.res.Free()
	p.used = 0
	p.mu.Unlock()
}
