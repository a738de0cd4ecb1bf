package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Readiness-gated pipeline scheduling.
//
// The MSRP solve has two dependency shapes, and this pipeline follows
// exactly those, with no stage barrier:
//
//   - Item i's stage B needs item i's stage A, and nothing else (a
//     source's §8.2.1 seed enumeration needs that source's §7.1/§8.1
//     build). The two stages run fused and depth-first: the worker that
//     finishes A(i) runs B(i) next. At most one item per worker sits
//     between its stages, so state produced by A and released by B
//     peaks at Θ(P·aux) instead of Θ(n·aux), and A's output is still
//     cache-hot when B reads it.
//   - A stage-C item (a §8.2.2 center) depends on a *subset* of the A/B
//     items — the sources that can contribute seed entries to it —
//     known only as a conservative over-approximation. No index
//     arithmetic can express that, so the dependency edge is explicit:
//     the caller tracks when each C item becomes runnable and publishes
//     it through a ReadyQueue; workers that run out of A/B work drain
//     the queue while other A/B items are still in flight.
//
// The engine knows nothing about sources, centers or seed tables.

// ReadyQueue is the hand-off between a pipeline's A/B stages and its
// readiness-gated stage C: a FIFO of stage-C item indices that have
// become runnable. Mark is safe to call from any goroutine (stage-B
// callbacks, or the caller before the run for items with no
// dependencies at all); everything Marked before the run or during it
// is eventually executed exactly once.
//
// A ReadyQueue is single-use: it carries one PipelineReadyScratchCtx
// call's stage-C item space [0, Total()) and is not reset.
type ReadyQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	queue   []int
	head    int
	marked  []bool
	popped  int
	aborted bool
}

// NewReadyQueue returns a queue for stage-C item indices [0, total).
func NewReadyQueue(total int) *ReadyQueue {
	q := &ReadyQueue{marked: make([]bool, total)}
	q.cond.L = &q.mu
	return q
}

// Total returns the stage-C item count.
func (q *ReadyQueue) Total() int { return len(q.marked) }

// Mark publishes item i as runnable. Every index must be marked at
// most once; marking out of range or twice panics — readiness is a
// correctness protocol (an item marked early races its inputs, an item
// marked twice would run twice), so a protocol violation is a bug in
// the caller's dependency analysis, not a recoverable condition.
// Writes made before Mark(i) are visible to the worker that executes
// item i.
func (q *ReadyQueue) Mark(i int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i < 0 || i >= len(q.marked) {
		panic(fmt.Sprintf("engine: ReadyQueue.Mark(%d) out of range [0,%d)", i, len(q.marked)))
	}
	if q.marked[i] {
		panic(fmt.Sprintf("engine: ReadyQueue item %d marked twice", i))
	}
	q.marked[i] = true
	q.queue = append(q.queue, i)
	q.cond.Signal()
}

// pop blocks until an item is runnable and returns it, or returns
// false when every item has been handed out (the queue is drained) or
// the run was aborted by cancellation.
func (q *ReadyQueue) pop() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.aborted {
			return 0, false
		}
		if q.head < len(q.queue) {
			i := q.queue[q.head]
			q.head++
			q.popped++
			if q.popped == len(q.marked) {
				// Last item handed out: release every parked worker.
				q.cond.Broadcast()
			}
			return i, true
		}
		if q.popped == len(q.marked) {
			return 0, false
		}
		q.cond.Wait()
	}
}

// abort wakes every parked worker on cancellation; pending items are
// abandoned.
func (q *ReadyQueue) abort() {
	q.mu.Lock()
	q.aborted = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// PipelineReadyScratchCtx executes a three-stage, dependency-aware
// schedule: stageA(i) then stageB(i) for every i in [0, nAB) — fused
// depth-first per item, each stage on a freshly Reset scratch — plus
// stageC(j) for every j the ReadyQueue marks runnable (all rq.Total()
// of them, unless cancelled). The call returns once every A/B item and
// every stage-C item has completed.
//
// Scheduling is A/B-first and work-conserving: a worker claims pending
// A/B items while any remain (they are what make C items runnable, so
// draining them first maximizes downstream readiness), and switches to
// the ready queue when the A/B space is exhausted — while other
// workers are still *inside* their A/B items. That tail is where the
// cross-family overlap happens: C work starts as soon as any worker
// runs dry, not when the slowest A/B item finishes.
// Workers parked on an empty queue are woken by Mark, by the final
// pop, or by cancellation.
//
// Liveness contract: unless ctx is cancelled, the caller must
// guarantee that every stage-C index is eventually Marked — by stage-B
// callbacks or up front. (The MSRP caller's invariant: every center's
// remaining-contributor count reaches zero once the last contributing
// source retires inside stage B.) A caller that under-marks deadlocks
// its drain — deliberately so; the forced-overlap regression tests
// rely on a mis-scheduled run hanging loudly rather than finishing
// with a silently narrowed stage.
//
// Determinism: all three stages touch only state owned by their index,
// so although pop order is schedule-dependent, outputs are not.
// Cancellation: ctx is observed before each A/B item, between its
// stages, and before each C item; parked workers are woken promptly.
// Stages in flight are never interrupted.
func (p *Pool) PipelineReadyScratchCtx(ctx context.Context, nAB int, stageA, stageB func(i int, s *Scratch), rq *ReadyQueue, stageC func(i int, s *Scratch)) error {
	done := ctx.Done()
	total := nAB + rq.Total()
	if total == 0 {
		return ctx.Err()
	}
	if done != nil {
		// Wake workers parked in rq.pop the moment ctx dies; the
		// watcher itself dies with the run.
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				rq.abort()
			case <-finished:
			}
		}()
	}
	workers := p.workers
	if workers > total {
		workers = total
	}
	var next atomic.Int64
	run := func(s *Scratch) {
		for {
			if canceled(done) {
				return
			}
			if i := int(next.Add(1)) - 1; i < nAB {
				s.Reset()
				stageA(i, s)
				if canceled(done) {
					return
				}
				s.Reset()
				stageB(i, s)
				continue
			}
			j, ok := rq.pop()
			if !ok || canceled(done) {
				return
			}
			s.Reset()
			stageC(j, s)
		}
	}
	if workers < 2 {
		s := p.grab()
		run(s)
		p.release(s)
		return ctx.Err()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := p.grab()
			defer p.release(s)
			run(s)
		}()
	}
	wg.Wait()
	return ctx.Err()
}
