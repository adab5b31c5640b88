package block

import (
	"sync"
	"testing"
)

func TestGetSizes(t *testing.T) {
	cases := []int{0, 1, 100, 4 << 10, (4 << 10) + 1, 128 << 10, 160 << 10, 1 << 20, 20 << 20, (20 << 20) + 1}
	for _, n := range cases {
		b := GetLen(n)
		if len(b.B) != n {
			t.Errorf("GetLen(%d): len = %d", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Errorf("GetLen(%d): cap = %d < n", n, cap(b.B))
		}
		b.Release()
	}
}

func TestClassFor(t *testing.T) {
	if c := classFor(1); c != 0 {
		t.Errorf("classFor(1) = %d, want 0", c)
	}
	for i, size := range classSizes {
		if c := classFor(size); c != i {
			t.Errorf("classFor(%d) = %d, want %d", size, c, i)
		}
	}
	if c := classFor(classSizes[numClasses-1] + 1); c != unpooled {
		t.Errorf("classFor(max+1) = %d, want unpooled", c)
	}
}

func TestOversizedUnpooled(t *testing.T) {
	n := classSizes[numClasses-1] + 1
	b := Get(n)
	if b.class != unpooled {
		t.Fatalf("class = %d, want unpooled", b.class)
	}
	if cap(b.B) != n {
		t.Fatalf("oversized cap = %d, want exact %d", cap(b.B), n)
	}
	b.Release()
}

func TestRecycleKeepsCapacity(t *testing.T) {
	b := Get(100 << 10)
	// Outgrow the class: the grown array must travel back into the pool.
	b.B = append(b.B[:0], make([]byte, 300<<10)...)
	grownCap := cap(b.B)
	b.Release()
	if grownCap < 300<<10 {
		t.Fatalf("grown cap = %d", grownCap)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(-1) did not panic")
		}
	}()
	Get(-1)
}

// TestCrossGoroutineHandoff moves ownership producer -> consumer through a
// channel, the pattern the stream pipeline uses. Run under -race this
// doubles as a happens-before check on the arena's recycling.
func TestCrossGoroutineHandoff(t *testing.T) {
	const bufs = 1000
	ch := make(chan *Buf, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bufs; i++ {
			b := GetLen(1024)
			b.B[0] = byte(i)
			ch <- b
		}
		close(ch)
	}()
	got := 0
	for b := range ch {
		_ = b.B[0]
		b.Release()
		got++
	}
	wg.Wait()
	if got != bufs {
		t.Fatalf("received %d bufs, want %d", got, bufs)
	}
}

func TestLeakTracking(t *testing.T) {
	snap, stop := StartTracking()
	defer stop()

	held := Get(512)
	if leaked := LeakedSince(snap); len(leaked) != 1 {
		t.Fatalf("LeakedSince = %d entries, want 1", len(leaked))
	}
	held.Release()
	if leaked := LeakedSince(snap); len(leaked) != 0 {
		t.Fatalf("LeakedSince after release = %d entries, want 0", len(leaked))
	}
}

// TestLeakTrackingSnapshotExcludesPriorBufs: buffers alive before the
// snapshot never count as leaks of that snapshot.
func TestLeakTrackingSnapshotExcludesPriorBufs(t *testing.T) {
	_, stopOuter := StartTracking()
	defer stopOuter()
	prior := Get(512)
	defer prior.Release()

	snap, stop := StartTracking()
	defer stop()
	if leaked := LeakedSince(snap); len(leaked) != 0 {
		t.Fatalf("prior buf reported as leak: %v", leaked)
	}
}

func BenchmarkGetRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(128 << 10)
		buf.Release()
	}
}
