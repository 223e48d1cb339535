package physical

import (
	"gofusion/internal/arrow/compute"
	"gofusion/internal/memory"
)

// Scratch is expression-result storage that one operator owns for one
// partition and passes to every evaluation it makes. With it, each node
// computing an arithmetic, comparison, AND/OR/NOT, numeric CAST or
// negation result writes into the value and validity buffers it used for
// the previous batch instead of allocating new ones. So an array evaluated
// with a Scratch is valid only until the next evaluation with the same
// Scratch: an operator passes one only where its results die inside its
// own Push, and keeps neither them nor anything aliasing them past it.
// Under the sanitize build tag a buffer is poisoned before it is reused,
// so a result kept too long reads garbage. The zero Scratch is ready to
// use and holds nothing until its first numeric result. A Scratch serves
// one goroutine.
type Scratch struct {
	bufs map[PhysicalExpr]*compute.Buf
}

// buf returns e's result storage; a nil Scratch returns nil, which makes
// kernels allocate.
func (s *Scratch) buf(e PhysicalExpr) *compute.Buf {
	if s == nil {
		return nil
	}
	b, ok := s.bufs[e]
	switch {
	case !ok:
		if s.bufs == nil {
			s.bufs = make(map[PhysicalExpr]*compute.Buf)
		}
		b = new(compute.Buf)
		s.bufs[e] = b
	case memory.SanitizeEnabled:
		b.Poison()
	}
	return b
}
