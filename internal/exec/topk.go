package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/physical"
)

// TopKExec is the specialized Sort+Limit operator (paper Section 6.2,
// "Top K"): it keeps only the best K rows of each partition in a bounded
// heap instead of sorting the whole input, and emits them sorted.
type TopKExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	Keys  []SortSpec
	K     int64
}

func (e *TopKExec) Schema() *arrow.Schema              { return e.Input.Schema() }
func (e *TopKExec) Children() []physical.ExecutionPlan { return []physical.ExecutionPlan{e.Input} }
func (e *TopKExec) Partitions() int                    { return e.Input.Partitions() }
func (e *TopKExec) String() string                     { return fmt.Sprintf("TopKExec: k=%d", e.K) }
func (e *TopKExec) OutputOrdering() []physical.SortField {
	return (&ExternalSortExec{Input: e.Input, Keys: e.Keys}).OutputOrdering()
}
func (e *TopKExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &TopKExec{Input: c, Keys: e.Keys, K: e.K}, nil
}

func (e *TopKExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if e.K == 0 {
		// Nothing can be returned: the input is not even started.
		return physical.InstrumentStream(emptyStream(e.Schema()), e.Metrics()), nil
	}
	in, err := e.Input.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	var emit func() (*arrow.RecordBatch, error)
	next := func() (*arrow.RecordBatch, error) {
		if emit == nil {
			out, err := e.best(ctx, in)
			if err != nil {
				return nil, err
			}
			emit = sliceNext(ctx, out)
		}
		return emit()
	}
	return physical.InstrumentStream(NewFuncStream(e.Schema(), next, in.Close), e.Metrics()), nil
}

// best reads in through the heap and returns its K best rows, sorted.
func (e *TopKExec) best(ctx *physical.ExecContext, in physical.Stream) (*arrow.RecordBatch, error) {
	enc, err := sortEncoder(e.Keys)
	if err != nil {
		return nil, err
	}
	t := &topKRows{k: int(e.K), schema: e.Schema()}
	var keys rowKeys
	err = forEachBatch(ctx, in, func(b *arrow.RecordBatch) error {
		cols, err := evalExprs(sortExprs(e.Keys), b)
		if err != nil {
			return err
		}
		keys.reset()
		keys.appendRows(enc, cols, b.NumRows())
		return t.push(b, &keys, nil)
	})
	if err != nil {
		return nil, err
	}
	return t.sorted()
}

// topKSlack is how many evicted rows the top-k heap tolerates among the
// admitted ones before it compacts them away.
const topKSlack = 4096

// topKRows keeps, per group, the k rows that come first in sort-key order:
// the one bounded heap behind ORDER BY … LIMIT (TopKExec, one group) and
// row_number() <= k (WindowExec with TopK, one group per PARTITION BY
// key). Rows are admitted as the input streams by: an admitted row gets the
// next candidate id, its key is appended to keys and the row itself to
// kept, so candidate id i is row i of the concatenation of kept. Ids grow
// with arrival, which makes (key, id) the same total order the full sort
// uses, ties going to the earlier row. k must be positive; both operators
// answer k = 0 without starting their input.
type topKRows struct {
	k      int
	schema *arrow.Schema
	// heaps[g] holds group g's candidates as a max-heap on (key, id): the
	// root is the row the next better one evicts.
	heaps [][]uint32
	keys  rowKeys
	kept  []*arrow.RecordBatch
	live  int // candidates currently in a heap

	keptBytes int64
	admitted  []int32
}

// compare orders two candidates by (key, id).
func (t *topKRows) compare(a, b uint32) int {
	if c := bytes.Compare(t.keys.key(int(a)), t.keys.key(int(b))); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func (t *topKRows) siftUp(h []uint32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.compare(h[i], h[parent]) < 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (t *topKRows) siftDown(h []uint32, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && t.compare(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && t.compare(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// push offers every row of b. keys holds the rows' encoded sort keys and
// gids their group ids, dense from 0; nil gids put every row in group 0.
func (t *topKRows) push(b *arrow.RecordBatch, keys *rowKeys, gids []uint32) error {
	n := b.NumRows()
	t.admitted = t.admitted[:0]
	for i := 0; i < n; i++ {
		g := 0
		if gids != nil {
			g = int(gids[i])
		}
		for g >= len(t.heaps) {
			t.heaps = append(t.heaps, nil)
		}
		h := t.heaps[g]
		key := keys.key(i)
		full := len(h) == t.k
		// A row no better than the group's worst loses; on equal keys the
		// earlier row stays.
		if full && bytes.Compare(key, t.keys.key(int(h[0]))) >= 0 {
			continue
		}
		id := uint32(t.keys.len())
		t.keys.appendKey(key)
		t.admitted = append(t.admitted, int32(i))
		if full {
			h[0] = id
			t.siftDown(h, 0)
		} else {
			h = append(h, id)
			t.siftUp(h, len(h)-1)
			t.heaps[g] = h
			t.live++
		}
	}
	if len(t.admitted) > 0 {
		rows := b
		if len(t.admitted) < n {
			rows = compute.TakeBatch(b, t.admitted)
		}
		t.kept = append(t.kept, rows)
		t.keptBytes += batchBytes(rows)
	}
	if t.keys.len() > 2*t.live+topKSlack {
		return t.compact()
	}
	return nil
}

// liveIDs lists the candidates still in a heap.
func (t *topKRows) liveIDs() []int32 {
	ids := make([]int32, 0, t.live)
	for _, h := range t.heaps {
		for _, id := range h {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// gather copies the candidates ids names out of kept, in that order.
func (t *topKRows) gather(ids []int32) (*arrow.RecordBatch, error) {
	all, err := compute.ConcatBatches(t.schema, t.kept)
	if err != nil {
		return nil, err
	}
	return compute.TakeBatch(all, ids), nil
}

// compact drops evicted rows, renumbering the live candidates in id order
// (which preserves every heap's shape and the arrival tie-break). Afterwards
// kept is one batch whose row i is candidate i, ids 0..live-1.
func (t *topKRows) compact() error {
	ids := t.liveIDs()
	slices.Sort(ids)
	rows, err := t.gather(ids)
	if err != nil {
		return err
	}
	renumber := make([]uint32, t.keys.len())
	var keys rowKeys
	for fresh, old := range ids {
		renumber[old] = uint32(fresh)
		keys.appendKey(t.keys.key(int(old)))
	}
	for _, h := range t.heaps {
		for i, id := range h {
			h[i] = renumber[id]
		}
	}
	t.keys, t.kept, t.keptBytes = keys, []*arrow.RecordBatch{rows}, batchBytes(rows)
	return nil
}

func (t *topKRows) memUsage() int64 {
	return t.keptBytes + t.keys.memUsage() + int64(len(t.heaps))*24 + int64(t.live)*4
}

// sorted returns the survivors ordered by (key, arrival), the form
// ORDER BY … LIMIT emits.
func (t *topKRows) sorted() (*arrow.RecordBatch, error) {
	ids := t.liveIDs()
	slices.SortFunc(ids, func(a, b int32) int { return t.compare(uint32(a), uint32(b)) })
	return t.gather(ids)
}

// numbered returns the survivors in arrival order, the form a window
// emits, and beside each its place in its group's (key, arrival) order,
// counting from 1.
func (t *topKRows) numbered() (*arrow.RecordBatch, []int64, error) {
	if err := t.compact(); err != nil {
		return nil, nil, err
	}
	rowNumber := make([]int64, t.live)
	for _, h := range t.heaps {
		slices.SortFunc(h, t.compare)
		for i, id := range h {
			rowNumber[id] = int64(i + 1)
		}
	}
	return t.kept[0], rowNumber, nil
}
