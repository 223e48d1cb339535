package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/serverload"
	"gofusion/internal/testutil"
)

// checksum is the cheap per-result fingerprint checked on every timed
// operation, so the full canonical comparison (sorting and cell-by-cell
// tolerance) runs once per distinct statement, before the clock starts.
// It is order-insensitive (row hashes are summed) and float-tolerant
// (float columns contribute a sum that is compared with the tolerance of
// testutil, not bit for bit: partial aggregates merge in a different
// order on every run).
type checksum struct {
	rows     int64
	hash     uint64    // sum over rows of the hash of the non-float cells
	floatSum []float64 // per float column, in column order
	floatAbs []float64
}

func (c checksum) equal(o checksum) bool {
	if c.rows != o.rows || c.hash != o.hash || len(c.floatSum) != len(o.floatSum) {
		return false
	}
	for i := range c.floatSum {
		// A column sum moves by at most the per-cell relative tolerance
		// times the sum of magnitudes.
		tol := testutil.AbsTol*float64(c.rows) + 1e-7*math.Max(c.floatAbs[i], o.floatAbs[i])
		if math.Abs(c.floatSum[i]-o.floatSum[i]) > tol && !testutil.FloatsEqual(c.floatSum[i], o.floatSum[i]) {
			return false
		}
	}
	return true
}

// project keeps the columns a statement declares stable (nil keeps all).
// ORDER BY ... LIMIT statements whose sort key has ties return an
// arbitrary choice among the tied rows, so only their key columns can be
// compared between two runs or two engines.
func project(b *arrow.RecordBatch, cols []int) *arrow.RecordBatch {
	if cols == nil {
		return b
	}
	return b.Project(cols)
}

func checksumBatches(batches []*arrow.RecordBatch, stable []int) checksum {
	var c checksum
	var buf []uint64
	for _, full := range batches {
		b := project(full, stable)
		n := b.NumRows()
		if n == 0 {
			continue
		}
		c.rows += int64(n)
		var keyed []arrow.Array
		fi := 0
		for _, col := range b.Columns() {
			if !col.DataType().IsFloat() {
				keyed = append(keyed, col)
				continue
			}
			if fi == len(c.floatSum) {
				c.floatSum = append(c.floatSum, 0)
				c.floatAbs = append(c.floatAbs, 0)
			}
			for i := 0; i < n; i++ {
				if col.IsNull(i) {
					c.hash += uint64(fi+1) * 0x9E3779B97F4A7C15
					continue
				}
				v := floatValue(col, i)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					c.hash += uint64(fi+1) * 0xC2B2AE3D27D4EB4F
					continue
				}
				c.floatSum[fi] += v
				c.floatAbs[fi] += math.Abs(v)
			}
			fi++
		}
		buf = compute.HashBatch(keyed, n, buf)
		for _, h := range buf {
			c.hash += h
		}
	}
	return c
}

func floatValue(col arrow.Array, i int) float64 {
	if a, ok := col.(*arrow.Float64Array); ok {
		return a.Value(i)
	}
	return col.GetScalar(i).AsFloat64()
}

// checksumRows fingerprints a server response the same way. Cells arrive
// as json.Number, string, bool or nil; float and decimal columns ride as
// floats on the wire (see server.EncodeRows).
func checksumRows(res *serverload.QueryResult) checksum {
	c := checksum{rows: int64(len(res.Rows))}
	isFloat := make([]int, len(res.Types)) // 1-based float column ordinal, 0 for keyed columns
	for i, t := range res.Types {
		if strings.HasPrefix(t, "Float") || strings.HasPrefix(t, "Decimal") {
			c.floatSum = append(c.floatSum, 0)
			c.floatAbs = append(c.floatAbs, 0)
			isFloat[i] = len(c.floatSum)
		}
	}
	for _, row := range res.Rows {
		h := uint64(fnvOffset)
		for ci, cell := range row {
			switch v := cell.(type) {
			case json.Number:
				if ci < len(isFloat) && isFloat[ci] > 0 {
					if f, err := v.Float64(); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
						c.floatSum[isFloat[ci]-1] += f
						c.floatAbs[isFloat[ci]-1] += math.Abs(f)
						continue
					}
				}
				h = fnvString(h, string(v))
			case string:
				h = fnvString(h, v)
			case bool:
				h = fnvString(h, strconv.FormatBool(v))
			case nil:
				h = fnvString(h, "\x00null")
			}
			h = fnvString(h, "|")
		}
		c.hash += h
	}
	return c
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds s into an FNV-1a hash without allocating: this runs on
// the client side of every timed request, on the cores the server uses.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// diffAgainst compares an engine result with the reference engine's under
// the repository's canonical, tolerance-aware comparison, returning ""
// when they agree.
func diffAgainst(got []*arrow.RecordBatch, want *arrow.RecordBatch, stable []int) string {
	if len(got) == 0 {
		if want.NumRows() == 0 {
			return ""
		}
		return fmt.Sprintf("engine returned no batches, reference %d rows", want.NumRows())
	}
	merged, err := compute.ConcatBatches(got[0].Schema(), got)
	if err != nil {
		return err.Error()
	}
	return testutil.DiffBatches(project(merged, stable), project(want, stable))
}
