package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestReadyPipelineCoversEveryItem: every A/B item runs both stages
// exactly once (B right after its own A, on the same worker), and
// every marked C item runs exactly once, never before its Mark —
// across worker counts, shapes, and mark origins (pre-marked vs marked
// from stage B).
func TestReadyPipelineCoversEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, shape := range []struct{ nAB, nC int }{
			{0, 5}, {5, 0}, {1, 1}, {7, 13}, {64, 64},
		} {
			aRan := make([]atomic.Int32, shape.nAB)
			bRan := make([]atomic.Int32, shape.nAB)
			aScratch := make([]*Scratch, shape.nAB)
			cRan := make([]atomic.Int32, shape.nC)
			marked := make([]atomic.Bool, shape.nC)
			rq := NewReadyQueue(shape.nC)
			// Half the C items are dependency-free (pre-marked); the
			// rest become ready as A/B items retire. With no A/B stage
			// there is no marker, so everything is pre-marked.
			pre := shape.nC / 2
			if shape.nAB == 0 {
				pre = shape.nC
			}
			for j := 0; j < pre; j++ {
				marked[j].Store(true)
				rq.Mark(j)
			}
			err := New(workers).PipelineReadyScratchCtx(context.Background(), shape.nAB,
				func(i int, s *Scratch) {
					aScratch[i] = s
					aRan[i].Add(1)
				},
				func(i int, s *Scratch) {
					if aRan[i].Load() != 1 {
						t.Errorf("workers=%d %+v: B(%d) before its A", workers, shape, i)
					}
					if aScratch[i] != s {
						t.Errorf("workers=%d %+v: A(%d) and B(%d) ran on different workers", workers, shape, i, i)
					}
					bRan[i].Add(1)
					// Item i marks the C items congruent to it beyond
					// the pre-marked half, spreading marks across the
					// whole A/B stage.
					for j := pre + i; j < shape.nC; j += shape.nAB {
						marked[j].Store(true)
						rq.Mark(j)
					}
				},
				rq,
				func(j int, _ *Scratch) {
					if !marked[j].Load() {
						t.Errorf("workers=%d %+v: C(%d) ran before its Mark", workers, shape, j)
					}
					cRan[j].Add(1)
				})
			if err != nil {
				t.Fatal(err)
			}
			for i := range aRan {
				if aRan[i].Load() != 1 || bRan[i].Load() != 1 {
					t.Fatalf("workers=%d %+v: item %d ran A=%d B=%d times",
						workers, shape, i, aRan[i].Load(), bRan[i].Load())
				}
			}
			for j := range cRan {
				if cRan[j].Load() != 1 {
					t.Fatalf("workers=%d %+v: C item %d ran %d times", workers, shape, j, cRan[j].Load())
				}
			}
		}
	}
}

// TestReadyPipelineABFirstSequential pins the A/B-first policy at the
// deterministic workers=1 point: even with C items ready from the
// start, the single worker drains every A/B item before touching the
// queue.
func TestReadyPipelineABFirstSequential(t *testing.T) {
	const nAB, nC = 4, 3
	rq := NewReadyQueue(nC)
	for j := 0; j < nC; j++ {
		rq.Mark(j)
	}
	var order []string
	err := New(1).PipelineReadyScratchCtx(context.Background(), nAB,
		func(i int, _ *Scratch) { order = append(order, "A") },
		func(i int, _ *Scratch) { order = append(order, "B") },
		rq,
		func(j int, _ *Scratch) { order = append(order, "C") })
	if err != nil {
		t.Fatal(err)
	}
	want := "ABABABABCCC"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("sequential order = %q, want %q", got, want)
	}
}

// TestReadyPipelineForcedOverlap is the deadlocks-on-regression proof
// that stage C really overlaps the A/B stages: stage A of the only
// A/B item parks until C(0) has run, and C(0) is ready from the
// start. A scheduler that barriers stage C behind the A/B stages can
// never run C(0) while A(0) is parked, so the wait cycles and the
// suite timeout reports it. On the readiness schedule worker 2 runs
// dry of A/B items immediately, pops C(0), and unparks A(0) — proving
// a C item ran strictly inside an A item's lifetime.
func TestReadyPipelineForcedOverlap(t *testing.T) {
	c0Done := make(chan struct{})
	var overlapSeen atomic.Bool
	rq := NewReadyQueue(1)
	rq.Mark(0)
	err := New(2).PipelineReadyScratchCtx(context.Background(), 1,
		func(i int, _ *Scratch) {
			<-c0Done
			overlapSeen.Store(true)
		},
		func(i int, _ *Scratch) {},
		rq,
		func(j int, _ *Scratch) { close(c0Done) })
	if err != nil {
		t.Fatal(err)
	}
	if !overlapSeen.Load() {
		t.Fatal("stage C never ran while stage A was in flight")
	}
}

// TestReadyPipelineDeterminism: per-index outputs are identical for
// every worker count even though pop order is schedule-dependent.
func TestReadyPipelineDeterminism(t *testing.T) {
	const nAB, nC = 40, 60
	compute := func(workers int) ([]int64, []int64) {
		mid := make([]int64, nAB)
		out := make([]int64, nC)
		rq := NewReadyQueue(nC)
		err := New(workers).PipelineReadyScratchCtx(context.Background(), nAB,
			func(i int, s *Scratch) {
				buf := s.Int64(i%9 + 1)
				for j := range buf {
					buf[j] = int64(i+1) * int64(j+3)
				}
				var sum int64
				for _, v := range buf {
					sum += v
				}
				mid[i] = sum
			},
			func(i int, _ *Scratch) {
				for j := i; j < nC; j += nAB {
					rq.Mark(j)
				}
			},
			rq,
			func(j int, s *Scratch) {
				buf := s.Int32(j%5 + 1)
				for k := range buf {
					buf[k] = int32(k + j)
				}
				out[j] = mid[j%nAB]*3 + int64(buf[len(buf)-1])
			})
		if err != nil {
			t.Fatal(err)
		}
		return mid, out
	}
	wantMid, wantOut := compute(1)
	for _, workers := range []int{2, 8} {
		gotMid, gotOut := compute(workers)
		for i := range wantMid {
			if gotMid[i] != wantMid[i] {
				t.Fatalf("workers=%d: mid[%d] = %d, want %d", workers, i, gotMid[i], wantMid[i])
			}
		}
		for j := range wantOut {
			if gotOut[j] != wantOut[j] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, j, gotOut[j], wantOut[j])
			}
		}
	}
}

// TestReadyPipelineCtxPreCancelled: a dead context runs no stage and
// leaves no goroutine parked.
func TestReadyPipelineCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		rq := NewReadyQueue(10)
		err := New(workers).PipelineReadyScratchCtx(ctx, 10,
			func(i int, _ *Scratch) { ran.Add(1) },
			func(i int, _ *Scratch) { ran.Add(1) },
			rq,
			func(j int, _ *Scratch) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: ran %d stages on a pre-cancelled context", workers, ran.Load())
		}
	}
}

// TestReadyPipelineCtxCancelWakesParkedWorkers is the §8.2.2
// cancellation-promptness contract at the engine layer: workers parked
// on a queue whose marks will never arrive (their producers were
// cancelled) must be woken and released instead of hanging the solve.
// Stage A of item 0 cancels the run and returns; no stage B ever
// marks; the other workers are parked in pop by then or park right
// after — if abort did not wake them, this test would hang.
func TestReadyPipelineCtxCancelWakesParkedWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bRan, cRan atomic.Int64
	rq := NewReadyQueue(50)
	err := New(4).PipelineReadyScratchCtx(ctx, 1,
		func(i int, _ *Scratch) { cancel() },
		func(i int, _ *Scratch) { bRan.Add(1) },
		rq,
		func(j int, _ *Scratch) { cRan.Add(1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bRan.Load() != 0 {
		t.Fatalf("stage B ran %d times after a cancel at the A/B boundary", bRan.Load())
	}
	if cRan.Load() != 0 {
		t.Fatalf("stage C ran %d unmarked items", cRan.Load())
	}
}

// TestReadyPipelineCtxCancelInStageC pins cancellation inside the
// readiness-gated stage: at workers=1, with every C item ready up
// front and stage C cancelling the run on its k-th item, exactly k C
// items run and the call reports context.Canceled. The queue's abort
// arrives asynchronously, so the single worker would keep popping if
// the C loop stopped checking ctx itself.
func TestReadyPipelineCtxCancelInStageC(t *testing.T) {
	const nAB, nC, k = 3, 1000, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rq := NewReadyQueue(nC)
	for j := 0; j < nC; j++ {
		rq.Mark(j)
	}
	var abRan, cRan int
	err := New(1).PipelineReadyScratchCtx(ctx, nAB,
		func(i int, _ *Scratch) {},
		func(i int, _ *Scratch) { abRan++ },
		rq,
		func(j int, _ *Scratch) {
			if cRan++; cRan == k {
				cancel()
			}
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if abRan != nAB {
		t.Fatalf("%d of %d A/B items ran before stage C", abRan, nAB)
	}
	if cRan != k {
		t.Fatalf("stage C ran %d items, want exactly %d (cancelled on item %d)", cRan, k, k)
	}
}

// TestReadyQueueContractPanics: marking out of range or twice is a
// dependency-analysis bug and must fail loudly.
func TestReadyQueueContractPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	q := NewReadyQueue(2)
	q.Mark(1)
	mustPanic("double mark", func() { q.Mark(1) })
	mustPanic("out of range", func() { q.Mark(2) })
	mustPanic("negative", func() { q.Mark(-1) })
}
