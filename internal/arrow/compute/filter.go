// Package compute implements vectorized kernels over arrow Arrays:
// selection (filter, take), comparisons, boolean algebra, arithmetic,
// casting, hashing, concatenation, sorting and simple aggregation
// primitives. Kernels are the shared fast path for both the modular engine
// and the baseline comparator.
package compute

import (
	"fmt"
	"math/bits"

	"gofusion/internal/arrow"
)

// LengthError reports a filter mask whose length differs from the
// batch's.
type LengthError struct {
	Rows, Mask int
}

func (e *LengthError) Error() string {
	return fmt.Sprintf("compute: filter mask of %d rows over a batch of %d", e.Mask, e.Rows)
}

// minGatherRun is the mean run length from which a filter copies its
// selected rows run by run (GatherRuns) rather than row by row (Take over
// indices). BenchmarkFilterRunLength measures the crossover.
const minGatherRun = 6

// AppendRuns appends the rows mask selects (valid and true) to runs as
// maximal runs of source src, reading 64 mask bits at a time. A run that
// starts where the last run of the same source ends extends it. This is
// the one routine that turns a mask into a selection: FilterBatch and the
// GPQ scan both call it.
func AppendRuns(runs []Run, src int, mask *arrow.BoolArray) []Run {
	n := mask.Len()
	vals, valid := mask.ValuesBitmap(), mask.Validity()
	for base := 0; base < n; base += 64 {
		w := vals.Word(base) & valid.Word(base)
		if n-base < 64 {
			w &= uint64(1)<<(n-base) - 1
		}
		if w&1 != 0 {
			// A run at the word's first row may continue the last run.
			k := bits.TrailingZeros64(^w)
			if last := len(runs) - 1; last >= 0 && runs[last].Src == src && runs[last].End == base {
				runs[last].End = base + k
			} else {
				runs = append(runs, Run{Src: src, Start: base, End: base + k})
			}
			w &^= uint64(1)<<k - 1
		}
		for w != 0 {
			lo := bits.TrailingZeros64(w)
			k := bits.TrailingZeros64(^(w >> lo))
			runs = append(runs, Run{Src: src, Start: base + lo, End: base + lo + k})
			w &^= (uint64(1)<<k - 1) << lo
		}
	}
	return runs
}

// selection is the rows a filter keeps: maximal runs, and the same rows
// as indices when the runs are too short to copy one by one.
type selection struct {
	runs []Run
	idx  []int32
	n    int
}

// selectRows counts the mask's selected rows and runs a word at a time,
// then, unless it keeps every row, collects them in slices of that size.
func selectRows(mask *arrow.BoolArray) selection {
	var s selection
	n, runs := mask.Len(), 0
	vals, valid := mask.ValuesBitmap(), mask.Validity()
	carry := uint64(0) // bit 0: the previous word's last row is selected
	for base := 0; base < n; base += 64 {
		w := vals.Word(base) & valid.Word(base)
		if n-base < 64 {
			w &= uint64(1)<<(n-base) - 1
		}
		s.n += bits.OnesCount64(w)
		runs += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	if s.n == n {
		return s
	}
	s.runs = AppendRuns(make([]Run, 0, runs), 0, mask)
	if runs > 1 && s.n < minGatherRun*runs {
		s.idx = make([]int32, s.n)
		k := 0
		for _, r := range s.runs {
			for i := r.Start; i < r.End; i++ {
				s.idx[k] = int32(i)
				k++
			}
		}
	}
	return s
}

// gather copies the selected rows of a, once.
func (s *selection) gather(a arrow.Array) (arrow.Array, error) {
	if s.idx != nil {
		return Take(a, s.idx), nil
	}
	return GatherRuns([]arrow.Array{a}, s.runs)
}

// FilterBatch keeps the rows of b for which mask is valid and true: SQL
// WHERE semantics, NULL mask slots are dropped. The mask becomes a
// selection once; each column is then gathered through it.
func FilterBatch(b *arrow.RecordBatch, mask *arrow.BoolArray) (*arrow.RecordBatch, error) {
	if b.NumRows() != mask.Len() {
		return nil, &LengthError{Rows: b.NumRows(), Mask: mask.Len()}
	}
	s := selectRows(mask)
	if s.n == b.NumRows() {
		return b, nil
	}
	cols := make([]arrow.Array, b.NumCols())
	for i, c := range b.Columns() {
		fc, err := s.gather(c)
		if err != nil {
			return nil, err
		}
		cols[i] = fc
	}
	return arrow.NewRecordBatchWithRows(b.Schema(), cols, s.n), nil
}
