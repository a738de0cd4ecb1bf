package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			p := New(workers)
			hits := make([]int32, n)
			var mu sync.Mutex
			total := 0
			p.Run(n, func(i int) {
				hits[i]++
				mu.Lock()
				total++
				mu.Unlock()
			})
			if total != n {
				t.Fatalf("workers=%d n=%d: ran %d items", workers, n, total)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("New(0).Workers() = %d", w)
	}
	if w := New(-3).Workers(); w < 1 {
		t.Fatalf("New(-3).Workers() = %d", w)
	}
	if w := New(7).Workers(); w != 7 {
		t.Fatalf("New(7).Workers() = %d", w)
	}
}

// TestDeterminism: the canonical engine contract — per-index outputs are
// identical for every worker count because fn(i) owns index i's state.
func TestDeterminism(t *testing.T) {
	const n = 500
	compute := func(workers int) []int64 {
		out := make([]int64, n)
		New(workers).RunScratch(n, func(i int, s *Scratch) {
			buf := s.Int64(i + 1)
			for j := range buf {
				buf[j] = int64(i) * int64(j+1)
			}
			var sum int64
			for _, v := range buf {
				sum += v
			}
			out[i] = sum
		})
		return out
	}
	want := compute(1)
	for _, workers := range []int{2, 4, 16} {
		got := compute(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForcedSteal proves the stealing path actually transfers work:
// item 0 blocks worker 0 until every item outside worker 0's first
// chunk has completed, so the rest of worker 0's range can only finish
// if the other worker steals it — all of it, including the range's
// last item (the ceil-half rounding). If stealing is broken or a tail
// item gets stranded, the test deadlocks and the suite's timeout
// reports it loudly. The pool's steal counter must record the
// transfers.
func TestForcedSteal(t *testing.T) {
	const n = 1024
	const workers = 2
	const half = n / workers
	// Worker 0's first pop claims exactly chunkSize(half) items, because
	// worker 1 cannot shrink worker 0's range before then: worker 1's
	// own first item waits for `started`, which closes inside fn(0) —
	// after worker 0's claiming CAS.
	stuck := chunkSize(half)
	started := make(chan struct{})
	release := make(chan struct{})
	var done atomic.Int64       // completions outside worker 0's first chunk
	exec := make([]*Scratch, n) // which worker's scratch ran each item
	p := New(workers)
	p.RunScratch(n, func(i int, s *Scratch) {
		exec[i] = s
		switch {
		case i == 0:
			close(started)
			<-release
		case i >= half:
			<-started
			fallthrough
		default:
			if i >= stuck && done.Add(1) == int64(n-stuck) {
				close(release)
			}
		}
	})
	// At release time every item outside [0, stuck) had completed, and
	// worker 0 was still parked inside fn(0) — so every item of its
	// remaining range [stuck, half) was stolen and ran on the other
	// worker's scratch. "Every", not "some".
	for i := stuck; i < half; i++ {
		if exec[i] == exec[0] {
			t.Fatalf("item %d ran on the blocked worker", i)
		}
	}
	if p.Steals() == 0 {
		t.Fatal("forced steal recorded no steals")
	}
}

// TestStealingMatchesCounter runs the same workload through both
// scheduling strategies (small n forces the counter, large n the
// stealing path) and checks identical per-index output.
func TestStealingMatchesCounter(t *testing.T) {
	for _, n := range []int{8, 64, 1000, 4097} {
		for _, workers := range []int{2, 3, 8} {
			out := make([]int64, n)
			New(workers).Run(n, func(i int) {
				out[i] = int64(i)*3 + 1
			})
			for i := range out {
				if out[i] != int64(i)*3+1 {
					t.Fatalf("n=%d workers=%d: out[%d] = %d", n, workers, i, out[i])
				}
			}
		}
	}
}

func TestChunkSizeBounds(t *testing.T) {
	for _, remaining := range []int{1, 2, 7, 8, 100, 1 << 20} {
		c := chunkSize(remaining)
		if c < 1 || c > maxStealChunk || c > remaining {
			t.Fatalf("chunkSize(%d) = %d", remaining, c)
		}
	}
}

func TestRangePacking(t *testing.T) {
	cases := [][2]int{{0, 0}, {0, 1}, {5, 9}, {0, maxStealItems}, {maxStealItems - 1, maxStealItems}}
	for _, c := range cases {
		lo, hi := unpackRange(packRange(c[0], c[1]))
		if lo != c[0] || hi != c[1] {
			t.Fatalf("pack/unpack(%d,%d) = (%d,%d)", c[0], c[1], lo, hi)
		}
	}
}

func TestScratchBuffersDisjoint(t *testing.T) {
	s := &Scratch{}
	a := s.Int32(10)
	b := s.Int32(10)
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 2
	}
	for i := range a {
		if a[i] != 1 {
			t.Fatal("second buffer clobbered the first")
		}
	}
	c := s.Bool(5)
	d := s.Bool(5)
	c[0], d[0] = true, false
	if !c[0] {
		t.Fatal("bool buffers overlap")
	}
	e := s.Int64(4)
	f := s.Int64(4)
	e[0], f[0] = 7, 9
	if e[0] != 7 {
		t.Fatal("int64 buffers overlap")
	}
}

func TestScratchReuseAfterReset(t *testing.T) {
	s := &Scratch{}
	a := s.Int32(100)
	first := &a[0]
	s.Reset()
	b := s.Int32(100)
	if &b[0] != first {
		t.Fatal("Reset did not recycle the backing array")
	}
}

func TestScratchAttachPersists(t *testing.T) {
	s := &Scratch{}
	made := 0
	mk := func() any { made++; return &made }
	v1 := s.Attach("k", mk)
	s.Reset()
	v2 := s.Attach("k", mk)
	if v1 != v2 || made != 1 {
		t.Fatalf("Attach did not persist across Reset (made=%d)", made)
	}
}

// TestPoolFreeListCarriesScratch: the same scratch (and thus its
// attachments) flows from one sequential stage to the next.
func TestPoolFreeListCarriesScratch(t *testing.T) {
	p := New(1)
	var seen any
	p.RunScratch(1, func(i int, s *Scratch) {
		seen = s.Attach("x", func() any { return new(int) })
	})
	p.RunScratch(1, func(i int, s *Scratch) {
		if got := s.Attach("x", func() any { return new(int) }); got != seen {
			t.Error("free list did not reuse the scratch between stages")
		}
	})
}

func TestRunScratchSteadyStateAllocs(t *testing.T) {
	p := New(1)
	work := func() {
		p.RunScratch(8, func(i int, s *Scratch) {
			buf := s.Int32(1 << 12)
			buf[0] = int32(i)
		})
	}
	work() // warm the arena
	allocs := testing.AllocsPerRun(20, work)
	if allocs > 2 { // the closure itself may allocate; buffers must not
		t.Fatalf("steady-state RunScratch allocates %.1f objects/run", allocs)
	}
}
