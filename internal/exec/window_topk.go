package exec

import (
	"bytes"
	"cmp"
	"io"
	"slices"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/rowformat"
)

// topKSlack is how many evicted rows the top-k path tolerates among the
// admitted ones before it compacts them away.
const topKSlack = 4096

// windowTopK keeps, per PARTITION BY group, the k rows that come first in
// window order. Rows are admitted as the input streams by: an admitted row
// gets the next candidate id, its order key is appended to keys and the row
// itself to kept, so candidate id i is row i of the concatenation of kept.
// Ids grow with arrival, which makes (key, id) the same total order the
// full sort uses, ties going to the earlier row.
type windowTopK struct {
	k      int
	schema *arrow.Schema
	ordEnc *rowformat.Encoder
	table  *groupTable // PARTITION BY group ids
	// heaps[g] holds group g's candidates as a max-heap on (key, id): the
	// root is the row the next better one evicts.
	heaps [][]uint32
	keys  rowKeys
	kept  []*arrow.RecordBatch
	live  int // candidates currently in a heap

	keptBytes int64
	gids      []uint32
	batchKeys rowKeys
	admitted  []int32
}

// compare orders two candidates by (key, id).
func (t *windowTopK) compare(a, b uint32) int {
	if c := bytes.Compare(t.keys.key(int(a)), t.keys.key(int(b))); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func (t *windowTopK) siftUp(h []uint32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.compare(h[i], h[parent]) < 0 {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (t *windowTopK) siftDown(h []uint32, i int) {
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

// push offers every row of b; partCols and ordCols are its evaluated
// PARTITION BY and ORDER BY columns.
func (t *windowTopK) push(b *arrow.RecordBatch, partCols, ordCols []arrow.Array) error {
	n := b.NumRows()
	t.gids = t.table.assign(partCols, n, t.gids)
	for len(t.heaps) < t.table.numGroups() {
		t.heaps = append(t.heaps, nil)
	}
	t.batchKeys.reset()
	t.batchKeys.appendRows(t.ordEnc, ordCols, n)
	t.admitted = t.admitted[:0]
	for i := 0; i < n; i++ {
		g := t.gids[i]
		h := t.heaps[g]
		key := t.batchKeys.key(i)
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

// compact drops evicted rows, renumbering the live candidates in id order
// (which preserves every heap's shape and the arrival tie-break). Afterwards
// kept is one batch whose row i is candidate i, ids 0..live-1.
func (t *windowTopK) compact() error {
	ids := make([]int32, 0, t.live)
	for _, h := range t.heaps {
		for _, id := range h {
			ids = append(ids, int32(id))
		}
	}
	slices.Sort(ids)
	all, err := compute.ConcatBatches(t.schema, t.kept)
	if err != nil {
		return err
	}
	rows := compute.TakeBatch(all, ids)
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

func (t *windowTopK) memUsage() int64 {
	return t.keptBytes + t.keys.memUsage() + t.batchKeys.memUsage() +
		int64(len(t.heaps))*24 + int64(t.live)*4 + t.table.memUsage()
}

// result emits the surviving rows in arrival order, as the full window
// does with its input, each numbered by its place in its group's window
// order.
func (t *windowTopK) result(out *arrow.Schema) (*arrow.RecordBatch, error) {
	if err := t.compact(); err != nil {
		return nil, err
	}
	rowNumber := make([]int64, t.live)
	for _, h := range t.heaps {
		slices.SortFunc(h, t.compare)
		for i, id := range h {
			rowNumber[id] = int64(i + 1)
		}
	}
	cols := append(t.kept[0].Columns(), arrow.NewInt64(rowNumber))
	return arrow.NewRecordBatchWithRows(out, cols, t.live), nil
}

// evalTopK runs the partition through windowTopK: O(rows) hash lookups and
// key compares, memory proportional to groups x k.
func (r *windowRun) evalTopK() (*arrow.RecordBatch, error) {
	e := r.e
	spec := &e.Specs[0]
	if e.TopK == 0 {
		// Nothing can pass the filter above; the input is never read.
		return compute.EmptyBatch(e.schema), nil
	}
	ordEnc, err := sortEncoder(spec.OrderBy)
	if err != nil {
		return nil, err
	}
	table, err := newGroupTable(exprTypes(spec.PartitionBy))
	if err != nil {
		return nil, err
	}
	t := &windowTopK{k: int(e.TopK), schema: e.Input.Schema(), ordEnc: ordEnc, table: table}
	var inputRows int64
	for {
		if err := checkCancel(r.ctx); err != nil {
			return nil, err
		}
		b, err := r.in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		inputRows += int64(b.NumRows())
		partCols, err := evalExprs(spec.PartitionBy, b)
		if err != nil {
			return nil, err
		}
		ordCols, err := evalExprs(sortExprs(spec.OrderBy), b)
		if err != nil {
			return nil, err
		}
		if err := t.push(b, partCols, ordCols); err != nil {
			return nil, err
		}
		if err := r.reserve(t.memUsage()); err != nil {
			return nil, err
		}
	}
	m := e.Metrics()
	m.Counter("groups").Add(int64(len(t.heaps)))
	m.Counter("rows_pruned_topk").Add(inputRows - int64(t.live))
	return t.result(e.schema)
}
