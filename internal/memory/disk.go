package memory

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// DiskManager creates reference-counted temporary spill files for operators
// that exceed their memory budget. Files are deleted when their last
// reference is released; the whole directory is removed on Close.
type DiskManager struct {
	mu      sync.Mutex
	dir     string
	created bool
	counter atomic.Int64
	open    map[string]*SpillFile
}

// NewDiskManager returns a manager that creates spill files under dir (or
// the OS temp dir when dir is empty). An execution context without one
// does not spill: operators then fail with the memory error instead.
func NewDiskManager(dir string) *DiskManager {
	return &DiskManager{dir: dir, open: make(map[string]*SpillFile)}
}

// CreateTemp creates a new spill file with one reference held by the
// caller.
func (d *DiskManager) CreateTemp(prefix string) (*SpillFile, error) {
	d.mu.Lock()
	if !d.created {
		if d.dir == "" {
			dir, err := os.MkdirTemp("", "gofusion-spill-")
			if err != nil {
				d.mu.Unlock()
				return nil, err
			}
			d.dir = dir
		} else if err := os.MkdirAll(d.dir, 0o755); err != nil {
			d.mu.Unlock()
			return nil, err
		}
		d.created = true
	}
	d.mu.Unlock()

	name := fmt.Sprintf("%s-%d.spill", prefix, d.counter.Add(1))
	path := filepath.Join(d.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sf := &SpillFile{path: path, file: f, mgr: d}
	sf.refs.Store(1)
	sanitizeTrackSpill(sf)
	d.mu.Lock()
	d.open[path] = sf
	d.mu.Unlock()
	return sf, nil
}

// Close releases all files and removes the spill directory.
func (d *DiskManager) Close() error {
	d.mu.Lock()
	files := make([]*SpillFile, 0, len(d.open))
	for _, f := range d.open {
		files = append(files, f)
	}
	dir, created := d.dir, d.created
	d.mu.Unlock()
	for _, f := range files {
		f.forceRemove()
	}
	if created {
		return os.RemoveAll(dir)
	}
	return nil
}

func (d *DiskManager) forget(path string) {
	d.mu.Lock()
	delete(d.open, path)
	d.mu.Unlock()
}

// SpillFile is a reference-counted temporary file. The creator writes it,
// then hands references to readers; the file is deleted when the last
// reference is released.
type SpillFile struct {
	path string
	file *os.File
	mgr  *DiskManager
	refs atomic.Int64
}

// Path returns the file path.
func (s *SpillFile) Path() string { return s.path }

// File returns the underlying open file (valid until the last Release).
func (s *SpillFile) File() *os.File { return s.file }

// AddRef acquires an additional reference.
func (s *SpillFile) AddRef() { s.refs.Add(1) }

// Release drops one reference, deleting the file when none remain.
func (s *SpillFile) Release() {
	n := s.refs.Add(-1)
	sanitizeSpillReleased(s, n)
	if n == 0 {
		s.forceRemove()
	}
}

func (s *SpillFile) forceRemove() {
	sanitizeSpillRemoved(s)
	s.mgr.forget(s.path)
	s.file.Close()
	os.Remove(s.path)
}
