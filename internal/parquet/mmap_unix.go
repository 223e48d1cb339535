//go:build unix

package parquet

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

// mmapSupported gates the mmap fast path; GOFUSION_NO_MMAP=1 forces the
// io.ReaderAt fallback (useful for A/B testing and constrained mounts).
func mmapSupported() bool { return os.Getenv("GOFUSION_NO_MMAP") == "" }

// Mapping is a read-only memory mapping of one GPQ file version. Decoded
// arrays alias mapping bytes zero-copy (page bodies feed unsafe slice
// casts directly), so a mapping is NEVER unmapped: dropping
// it would leave live arrays pointing at unmapped memory. Mappings are
// process-lifetime, deduplicated per file version in a registry; a file
// that changes on disk gets a fresh mapping under its new fingerprint and
// the old one is simply abandoned to the OS (clean pages cost no RSS once
// evicted by the kernel).
type Mapping struct {
	data []byte
}

// Size returns the mapped length in bytes.
func (m *Mapping) Size() int64 { return int64(len(m.data)) }

// ReadAt implements io.ReaderAt over the mapping (copies).
func (m *Mapping) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m.data)) {
		return 0, fmt.Errorf("parquet: mmap read at %d outside mapping of %d bytes", off, len(m.data))
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("parquet: mmap short read at %d", off)
	}
	return n, nil
}

// Bytes returns a zero-copy view of [off, off+n). The returned slice
// aliases the mapping and must be treated as immutable.
func (m *Mapping) Bytes(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(m.data)) {
		return nil, fmt.Errorf("parquet: mmap range [%d,%d) outside mapping of %d bytes", off, off+n, len(m.data))
	}
	return m.data[off : off+n : off+n], nil
}

// mmapRegistry deduplicates mappings per file version so N readers of one
// file share one mapping (and so remapping churn cannot accumulate).
var mmapRegistry = struct {
	sync.Mutex
	byFingerprint map[string]*Mapping
}{byFingerprint: map[string]*Mapping{}}

// mapFile returns the shared read-only mapping for the open file, keyed
// by its content fingerprint. Returns nil when mmap is unavailable or
// disabled; callers then keep the io.ReaderAt path.
func mapFile(f *os.File, size int64, fingerprint string) *Mapping {
	if !mmapSupported() || size <= 0 {
		return nil
	}
	mmapRegistry.Lock()
	defer mmapRegistry.Unlock()
	if m, ok := mmapRegistry.byFingerprint[fingerprint]; ok {
		return m
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	m := &Mapping{data: data}
	mmapRegistry.byFingerprint[fingerprint] = m
	return m
}
