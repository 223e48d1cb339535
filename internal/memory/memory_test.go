package memory

import (
	"errors"
	"os"
	"sync"
	"testing"
)

func TestGreedyPoolLimit(t *testing.T) {
	p := NewGreedyPool(100)
	r1 := NewReservation(p, "op1")
	r2 := NewReservation(p, "op2")
	if err := r1.Grow(80); err != nil {
		t.Fatal(err)
	}
	err := r2.Grow(30)
	if err == nil {
		t.Fatal("over-limit grow must fail")
	}
	var ex *ErrResourcesExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("want ErrResourcesExhausted, got %T", err)
	}
	if err := r2.Grow(20); err != nil {
		t.Fatal(err)
	}
	if p.Reserved() != 100 {
		t.Fatalf("reserved = %d", p.Reserved())
	}
	r1.Shrink(50)
	if p.Reserved() != 50 || r1.Size() != 30 {
		t.Fatal("shrink accounting wrong")
	}
	r1.Free()
	r2.Free()
	if p.Reserved() != 0 {
		t.Fatal("free accounting wrong")
	}
}

func TestReservationResizeAndOverShrink(t *testing.T) {
	p := NewGreedyPool(100)
	r := NewReservation(p, "op")
	defer r.Free()
	if err := r.Resize(40); err != nil {
		t.Fatal(err)
	}
	if err := r.Resize(10); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 10 || p.Reserved() != 10 {
		t.Fatal("resize wrong")
	}
	r.Shrink(1000) // clamped to current size
	if r.Size() != 0 || p.Reserved() != 0 {
		t.Fatal("over-shrink must clamp")
	}
}

func TestUnboundedPool(t *testing.T) {
	p := NewUnboundedPool()
	r := NewReservation(p, "x")
	if err := r.Grow(1 << 40); err != nil {
		t.Fatal("unbounded pool must not reject")
	}
	if p.Reserved() != 1<<40 {
		t.Fatal("tracking wrong")
	}
	r.Free()
}

func TestPoolConcurrency(t *testing.T) {
	p := NewGreedyPool(1 << 30)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewReservation(p, "worker")
			defer r.Free()
			for i := 0; i < 1000; i++ {
				if err := r.Grow(1024); err != nil {
					t.Error(err)
					return
				}
				r.Shrink(1024)
			}
		}()
	}
	wg.Wait()
	if p.Reserved() != 0 {
		t.Fatalf("leaked %d bytes", p.Reserved())
	}
}

func TestDiskManagerLifecycle(t *testing.T) {
	d := NewDiskManager(t.TempDir())
	f, err := d.CreateTemp("sort")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.File().WriteString("spill data"); err != nil {
		t.Fatal(err)
	}
	f.AddRef()
	f.Release() // still one ref
	if _, err := os.Stat(f.Path()); err != nil {
		t.Fatal("file must survive while referenced")
	}
	f.Release()
	if _, err := os.Stat(f.Path()); !os.IsNotExist(err) {
		t.Fatal("file must be deleted at zero refs")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskManagerCloseRemovesOpenFiles(t *testing.T) {
	dir := t.TempDir()
	d := NewDiskManager(dir)
	f, err := d.CreateTemp("agg")
	if err != nil {
		t.Fatal(err)
	}
	path := f.Path()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Close must remove outstanding files")
	}
}

// TestLRU: entries that cost 1 each make the byte budget an entry count,
// which is how the plan and footer caches bound themselves.
func TestLRU(t *testing.T) {
	l := NewSizedLRU[string, int](2, nil, "t")
	l.Put("a", 1, 1)
	l.Put("b", 2, 1)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatal("get wrong")
	}
	l.Put("c", 3, 1) // evicts b (a was refreshed)
	if _, ok := l.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := l.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	l.Put("a", 10, 1)
	if v, _ := l.Get("a"); v != 10 {
		t.Fatal("put must refresh value")
	}
	if st := l.Stats(); st.Hits == 0 || st.Misses == 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
