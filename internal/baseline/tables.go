package baseline

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/csvio"
	"gofusion/internal/parquet"
)

// MemTable is an in-memory baseline table.
type MemTable struct {
	schema  *arrow.Schema
	batches []*arrow.RecordBatch
	rows    int64
}

// NewMemTable wraps batches.
func NewMemTable(schema *arrow.Schema, batches []*arrow.RecordBatch) *MemTable {
	var rows int64
	for _, b := range batches {
		rows += int64(b.NumRows())
	}
	return &MemTable{schema: schema, batches: batches, rows: rows}
}

// Schema implements Table.
func (t *MemTable) Schema() *arrow.Schema { return t.schema }

// NumRows implements Table.
func (t *MemTable) NumRows() int64 { return t.rows }

// Materialize implements Table.
func (t *MemTable) Materialize(projection []int, _ int) ([]*arrow.RecordBatch, error) {
	if projection == nil {
		return t.batches, nil
	}
	out := make([]*arrow.RecordBatch, len(t.batches))
	for i, b := range t.batches {
		out[i] = b.Project(projection)
	}
	return out, nil
}

// RegisterBatches registers an in-memory table.
func (e *Engine) RegisterBatches(name string, schema *arrow.Schema, batches []*arrow.RecordBatch) {
	e.Register(name, NewMemTable(schema, batches))
}

// GPQTable reads GPQ files eagerly: whole row groups are decoded (with
// projection pushdown only); no statistics pruning, no Bloom filters, no
// late materialization.
type GPQTable struct {
	files  []string
	schema *arrow.Schema
	rows   int64
}

// NewGPQTable opens GPQ files.
func NewGPQTable(files []string) (*GPQTable, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("baseline: no files")
	}
	t := &GPQTable{files: files}
	for i, f := range files {
		fr, err := parquet.OpenFile(f)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t.schema = fr.Schema()
		}
		t.rows += fr.NumRows()
		fr.Close()
	}
	return t, nil
}

// RegisterGPQDir registers every GPQ file under dir as one table.
func (e *Engine) RegisterGPQDir(name, dir string) error {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".gpq") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(files)
	t, err := NewGPQTable(files)
	if err != nil {
		return err
	}
	e.Register(name, t)
	return nil
}

// RegisterGPQ registers explicit GPQ files.
func (e *Engine) RegisterGPQ(name string, files ...string) error {
	t, err := NewGPQTable(files)
	if err != nil {
		return err
	}
	e.Register(name, t)
	return nil
}

// Schema implements Table.
func (t *GPQTable) Schema() *arrow.Schema { return t.schema }

// NumRows implements Table.
func (t *GPQTable) NumRows() int64 { return t.rows }

// Materialize implements Table: files decode in parallel, fully.
func (t *GPQTable) Materialize(projection []int, workers int) ([]*arrow.RecordBatch, error) {
	if workers < 1 {
		workers = 1
	}
	results := make([][]*arrow.RecordBatch, len(t.files))
	errs := make([]error, len(t.files))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, f := range t.files {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fr, err := parquet.OpenFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			defer fr.Close()
			// Full scan: no predicate, no limit; every surviving page is
			// decoded.
			sc, err := fr.Scan(parquet.ScanOptions{Projection: projection})
			if err != nil {
				errs[i] = err
				return
			}
			for {
				b, err := sc.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = append(results[i], b)
			}
		}(i, f)
	}
	wg.Wait()
	var out []*arrow.RecordBatch
	for i := range t.files {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// CSVTable decodes CSV row-at-a-time into boxed values before building
// columns (TightDB's CSV path is deliberately simpler and slower than the
// engine's typed vectorized parser, matching the paper's relative CSV
// results).
type CSVTable struct {
	path   string
	schema *arrow.Schema
}

// NewCSVTable opens a CSV file, inferring the schema.
func NewCSVTable(path string) (*CSVTable, error) {
	schema, err := csvio.InferSchema(path, csvio.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &CSVTable{path: path, schema: schema}, nil
}

// RegisterCSV registers a CSV-backed table.
func (e *Engine) RegisterCSV(name, path string) error {
	t, err := NewCSVTable(path)
	if err != nil {
		return err
	}
	e.Register(name, t)
	return nil
}

// Schema implements Table.
func (t *CSVTable) Schema() *arrow.Schema { return t.schema }

// NumRows implements Table.
func (t *CSVTable) NumRows() int64 { return -1 }

// Materialize implements Table.
func (t *CSVTable) Materialize(projection []int, _ int) ([]*arrow.RecordBatch, error) {
	f, err := os.Open(t.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	if _, err := r.Read(); err != nil { // header
		return nil, err
	}
	cols := projection
	if cols == nil {
		cols = make([]int, t.schema.NumFields())
		for i := range cols {
			cols[i] = i
		}
	}
	outSchema := t.schema.Select(cols)
	builders := make([]arrow.Builder, len(cols))
	for i, c := range cols {
		builders[i] = arrow.NewBuilder(t.schema.Field(c).Type)
	}
	var out []*arrow.RecordBatch
	rows := 0
	flush := func(force bool) {
		if rows == 0 || (!force && rows < 8192) {
			return
		}
		arrs := make([]arrow.Array, len(builders))
		for i, b := range builders {
			arrs[i] = b.Finish()
		}
		out = append(out, arrow.NewRecordBatchWithRows(outSchema, arrs, rows))
		rows = 0
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, c := range cols {
			// Row-at-a-time boxed parse (deliberately naive).
			v := rec[c]
			if v == "" {
				builders[i].AppendNull()
				continue
			}
			s, err := parseBoxed(v, t.schema.Field(c).Type)
			if err != nil {
				return nil, err
			}
			builders[i].AppendScalar(s)
		}
		rows++
		flush(false)
	}
	flush(true)
	return out, nil
}

func parseBoxed(v string, t *arrow.DataType) (arrow.Scalar, error) {
	switch t.ID {
	case arrow.INT64:
		x, err := strconv.ParseInt(v, 10, 64)
		return arrow.Int64Scalar(x), err
	case arrow.FLOAT64:
		x, err := strconv.ParseFloat(v, 64)
		return arrow.Float64Scalar(x), err
	case arrow.BOOL:
		x, err := strconv.ParseBool(v)
		return arrow.BoolScalar(x), err
	case arrow.DATE32:
		d, err := arrow.ParseDate32(v)
		return arrow.NewScalar(arrow.Date32, d), err
	case arrow.TIMESTAMP:
		ts, err := arrow.ParseTimestamp(v)
		return arrow.NewScalar(arrow.Timestamp, ts), err
	default:
		return arrow.StringScalar(v), nil
	}
}
