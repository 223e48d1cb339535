package exec

import (
	"fmt"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// JoinMode selects how the build side is produced.
type JoinMode int

// Join distribution modes.
const (
	// CollectLeft builds one shared hash table from the whole left input
	// and probes with each right partition.
	CollectLeft JoinMode = iota
	// PartitionedJoin builds a table per partition; the planner hash
	// repartitions both inputs on the join keys first.
	PartitionedJoin
)

// HashJoinExec is a vectorized in-memory hash join supporting all eight
// join types (paper Section 6.4) on the build and probe of joinCore. A
// probe row's candidates are the build rows with its key: keys compare by
// value in a groupTable, or index an array when they are dense integers.
// Projection names the columns the join emits; the probe gathers only
// those, once per output row.
type HashJoinExec struct {
	joinCore
	Mode JoinMode
}

// NewHashJoinExec computes the join output schema.
func NewHashJoinExec(left, right physical.ExecutionPlan, on []JoinOn, filter *JoinFilter,
	jt logical.JoinType, mode JoinMode) *HashJoinExec {
	e := &HashJoinExec{Mode: mode}
	e.init(e, "HashJoinExec", left, right, on, filter, jt, nil, nil)
	return e
}

func (e *HashJoinExec) with(left, right physical.ExecutionPlan, cols []int, schema *arrow.Schema) joinOp {
	j := &HashJoinExec{Mode: e.Mode}
	j.init(j, e.name, left, right, e.On, e.Filter, e.Type, cols, schema)
	return j
}

func (e *HashJoinExec) String() string {
	mode := "CollectLeft"
	if e.Mode == PartitionedJoin {
		mode = "Partitioned"
	}
	return e.describe(" mode=" + mode)
}

// PushInto builds (CollectLeft: once for every partition; Partitioned:
// from this partition's left input) and compiles the probe of one
// partition.
func (e *HashJoinExec) PushInto(ctx *physical.ExecContext, partition int) (physical.Pusher, error) {
	e.Metrics().Counter("hashed_rows") // listed even when nothing hashes
	return e.pushInto(ctx, partition, e.Mode == PartitionedJoin)
}

// Dense integer keys. A build whose only key is an integer-backed column
// without NULLs is an array indexed by key − min instead of a hash table
// when its head array, 4 bytes per value in range, either is no larger
// than the groupTable it replaces or holds at most denseBudget entries.
// Parity: the table costs at least 28 bytes per distinct key (4/3 slots of
// 12 bytes, an 8-byte stored key and a 4-byte chain head) and never less
// than 64 slots, so a span of at most denseRangePerRow × rows +
// denseRangeMin values over distinct keys, as a dimension table's are, is
// never the larger of the two. Budget: below 4 MiB the array stays in the
// last-level cache, and a probe reads one entry where the table hashes the
// key, reads a slot and compares the stored key, so the array is the
// faster of the two even where it is the larger.
const (
	denseRangePerRow = 7
	denseRangeMin    = 256
	denseBudget      = 1 << 20
)

// estimateKeyCardinality samples up to 1024 row hashes and extrapolates
// the distinct-key count, used to pre-size the build table: high-
// cardinality builds avoid rehash cascades, low-cardinality builds avoid
// allocating a row-count-sized table that stays mostly empty.
func estimateKeyCardinality(hashes []uint64) int {
	n := len(hashes)
	if n == 0 {
		return 0
	}
	sample := n
	if sample > 1024 {
		sample = 1024
	}
	seen := make(map[uint64]struct{}, sample)
	step := n / sample
	if step < 1 {
		step = 1
	}
	taken := 0
	for i := 0; i < n && taken < sample; i += step {
		seen[hashes[i]] = struct{}{}
		taken++
	}
	if taken == 0 {
		return 0
	}
	est := len(seen) * n / taken
	if est > n {
		est = n
	}
	if est < 16 {
		est = 16
	}
	return est
}

// index chains the build rows by key: through a dense array when the only
// key is an integer column without NULLs over a small enough range, else
// through a groupTable. The table takes the key hashes a hash exchange
// sent with the build (bt.hashes) and hashes the keys itself without them;
// a probe partition does the same with its own exchange output.
func (e *HashJoinExec) index(bt *builtTable) (func(int) lookupFn, error) {
	n := bt.batch.NumRows()
	build, probe := joinKeyExprs(e.On)
	cols := make([]arrow.Array, len(build))
	types := make([]*arrow.DataType, len(build))
	for i, x := range build {
		var err error
		if cols[i], err = physical.EvalToArray(x, bt.batch, nil); err != nil {
			return nil, err
		}
		types[i] = x.DataType()
	}
	if n > 0 && len(cols) == 1 && cols[0].NullCount() == 0 {
		if newLookup := indexDense(bt, cols[0], probe[0]); newLookup != nil {
			e.Metrics().Counter("dense_builds").Add(1)
			return newLookup, nil
		}
	}
	// One vectorized hash pass feeds both the cardinality estimate
	// (pre-sizing keeps rehashes off large builds) and the inserts.
	hashed := e.Metrics().Counter("hashed_rows")
	hashes := bt.hashes
	if hashes == nil {
		hashes = compute.HashBatch(cols, n, nil)
		hashed.Add(int64(n))
	}
	gt, err := newGroupTableSized(types, estimateKeyCardinality(hashes))
	if err != nil {
		return nil, err
	}
	// Build rows with NULL keys still get group ids (probes can never
	// reach them: non-null probe keys hash and compare differently, and
	// null probe keys are rejected before lookup).
	gids, err := gt.assignHashed(cols, n, hashes, nil)
	if err != nil {
		return nil, err
	}
	if err := bt.res.Grow(gt.memUsage() + 4*int64(gt.numGroups()+n)); err != nil {
		return nil, err
	}
	head := make([]int32, gt.numGroups())
	bt.next = make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	// Prepend in reverse so each chain stays in ascending build-row order.
	for i := n - 1; i >= 0; i-- {
		g := gids[i]
		bt.next[i] = head[g]
		head[g] = int32(i)
	}
	return func(partition int) lookupFn {
		return hashLookup(probe, gt, head, handedHashes(e.Right, probe, partition), hashed)
	}, nil
}

// intKey is the element type of an integer-backed array.
type intKey interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64
}

// indexDense chains the build through a dense array when its key is an
// integer-backed array whose span fits, returning nil, for the groupTable
// to take, otherwise.
func indexDense(bt *builtTable, key arrow.Array, probe physical.PhysicalExpr) func(int) lookupFn {
	switch a := key.(type) {
	case *arrow.Int8Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Int16Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Int32Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Int64Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Uint8Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Uint16Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Uint32Array:
		return buildDense(bt, a.Values(), probe)
	case *arrow.Uint64Array:
		return buildDense(bt, a.Values(), probe)
	}
	return nil
}

// keyBits widens k to 64 bits (sign-extending a signed type), so that
// keyBits(k) − keyBits(lo) is k − lo for every k in [lo, hi] and at least
// hi − lo + 1 for every other k of the type: no key wraps into range.
func keyBits[T intKey](k T) uint64 { return uint64(int64(k)) }

// buildDense chains the build by key − lo when the keys span few enough
// values, in one pass: head holds the first build row + 1 of each key, so
// make's zeroing marks every key absent. A span past both limits, or an
// array the pool refuses, returns nil. The span is compared before adding
// one, so a range covering all of uint64 cannot overflow.
func buildDense[T intKey](bt *builtTable, keys []T, probe physical.PhysicalExpr) func(int) lookupFn {
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	span, n := keyBits(hi)-keyBits(lo), uint64(len(keys))
	if span >= denseRangePerRow*n+denseRangeMin && span >= denseBudget {
		return nil
	}
	size := int(span) + 1
	if bt.res.Grow(4*int64(size+len(keys))) != nil {
		return nil // the groupTable may still fit
	}
	head := make([]int32, size)
	next := make([]int32, len(keys))
	base := keyBits(lo)
	for i := len(keys) - 1; i >= 0; i-- {
		off := keyBits(keys[i]) - base
		next[i] = head[off] - 1
		head[off] = int32(i) + 1
	}
	bt.next = next
	return func(int) lookupFn { return denseLookup(probe, head, lo) }
}

// denseLookup finds a probe row's chain at head[key − lo] − 1; the probe
// key has the build key's type, which coerceJoinKeys guarantees.
func denseLookup[T intKey](probe physical.PhysicalExpr, head []int32, lo T) lookupFn {
	base := keyBits(lo)
	return func(rb *arrow.RecordBatch, first []int32) error {
		a, err := physical.EvalToArray(probe, rb, nil)
		if err != nil {
			return err
		}
		keys, ok := a.(*arrow.NumericArray[T])
		if !ok {
			return fmt.Errorf("exec: dense join probe key is %s, not the build's %T", a.DataType(), lo)
		}
		for i, k := range keys.Values() {
			if off := keyBits(k) - base; off < uint64(len(head)) {
				first[i] = head[off] - 1
			} else {
				first[i] = -1
			}
		}
		if a.NullCount() > 0 {
			for i := range first {
				if a.IsNull(i) {
					first[i] = -1
				}
			}
		}
		return nil
	}
}

// hashLookup finds a probe row's chain at head[group of its key in gt]:
// hash first, -1 for absent or NULL keys. It takes the hashes handed finds
// for a batch (handed may be nil) and hashes the keys itself, counting the
// rows in hashed, without them.
func hashLookup(probe []physical.PhysicalExpr, gt *groupTable, head []int32,
	handed func(*arrow.RecordBatch) []uint64, hashed *physical.Counter) lookupFn {
	var cols []arrow.Array
	var ls lookupScratch
	var gids []int32
	return func(rb *arrow.RecordBatch, first []int32) error {
		cols = cols[:0]
		for _, x := range probe {
			a, err := physical.EvalToArray(x, rb, nil)
			if err != nil {
				return err
			}
			cols = append(cols, a)
		}
		var hashes []uint64
		if handed != nil {
			hashes = handed(rb)
		}
		if hashes != nil {
			gids = gt.lookupHashed(cols, rb.NumRows(), hashes, &ls, gids)
		} else {
			hashed.Add(int64(rb.NumRows()))
			gids = gt.lookupInto(cols, rb.NumRows(), &ls, gids)
		}
		for i, g := range gids {
			if g >= 0 {
				first[i] = head[g]
			} else {
				first[i] = -1
			}
		}
		return nil
	}
}
