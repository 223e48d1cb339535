//go:build sanitize

package memory

import (
	"strings"
	"testing"
	"unsafe"
)

func findingContaining(t *testing.T, substr string) bool {
	t.Helper()
	for _, f := range SanitizerFindings() {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

func TestSanitizerCatchesBufferDoubleRelease(t *testing.T) {
	SanitizerReset()
	defer SanitizerReset()
	b := AllocBuffer(16)
	ReleaseBuffer(b)
	ReleaseBuffer(b)
	if !findingContaining(t, "double-released") {
		t.Fatalf("double release not reported; findings: %v", SanitizerFindings())
	}
}

func TestSanitizerCatchesCanaryOverwrite(t *testing.T) {
	SanitizerReset()
	defer SanitizerReset()
	b := AllocBuffer(8)
	// Write one byte past the end, as an out-of-bounds kernel would.
	*(*byte)(unsafe.Add(unsafe.Pointer(&b[0]), len(b))) = 0
	ReleaseBuffer(b)
	if !findingContaining(t, "trailing guard canary overwritten") {
		t.Fatalf("canary overwrite not reported; findings: %v", SanitizerFindings())
	}
}

func TestSanitizerCatchesBufferLeak(t *testing.T) {
	SanitizerReset()
	defer SanitizerReset()
	AllocBuffer(32)
	if !findingContaining(t, "never released") {
		t.Fatalf("buffer leak not reported; findings: %v", SanitizerFindings())
	}
}

func TestSanitizerCatchesSpillDoubleRelease(t *testing.T) {
	SanitizerReset()
	defer SanitizerReset()
	dm := NewDiskManager(t.TempDir())
	defer dm.Close()
	sf, err := dm.CreateTemp("san")
	if err != nil {
		t.Fatal(err)
	}
	sf.Release()
	sf.Release()
	if !findingContaining(t, "double-released") {
		t.Fatalf("spill double release not reported; findings: %v", SanitizerFindings())
	}
}

func TestSanitizerCatchesReservationOverShrinkAndLeak(t *testing.T) {
	SanitizerReset()
	defer SanitizerReset()
	p := NewUnboundedPool()
	r := NewReservation(p, "op")
	if err := r.Grow(100); err != nil {
		t.Fatal(err)
	}
	r.Shrink(200)
	if !findingContaining(t, "over-released") {
		t.Fatalf("over-shrink not reported; findings: %v", SanitizerFindings())
	}
	SanitizerReset()
	r2 := NewReservation(p, "leaky")
	if err := r2.Grow(64); err != nil {
		t.Fatal(err)
	}
	if !findingContaining(t, "leaked 64 bytes") {
		t.Fatalf("reservation leak not reported; findings: %v", SanitizerFindings())
	}
	r2.Free()
	if findingContaining(t, "leaked 64 bytes") {
		t.Fatalf("freed reservation still reported as leaked: %v", SanitizerFindings())
	}
}
