package serve

import (
	"sync"
	"time"

	"cwcflow/internal/obs"
	"cwcflow/internal/sim"
)

// ingress is a job's bounded, non-blocking sample-batch queue between the
// pool collector and the job's windower goroutine. The collector side
// never blocks: a push over the high-water mark marks the job congested —
// which makes its scheduler defer the job's slabs instead of simulating
// into a queue nobody drains — and a push over the hard
// capacity (unreachable while deferral works, since capacity exceeds the
// high-water mark by more than the pool's possible in-flight quanta)
// spills the oldest batch, which is counted and fails the job: spilled
// samples mean the alignment stage could never complete its cuts.
type ingress struct {
	mu        sync.Mutex
	ring      []*sim.Batch // circular, len(ring) == capacity
	stamps    []int64      // arrival stamp (unix ns) per ring slot
	head      int
	n         int
	highWater int
	closed    bool // producer done: every task's final delivery arrived
	drained   bool // consumer gone: release instead of queueing
	spilled   int64
	notify    chan struct{}  // 1-buffered consumer wakeup
	wait      *obs.Histogram // batch residency push → pop (nil-safe)

	// wasCongested: a push reached the high-water mark since drainedBelow
	// last reported the backlog drained.
	wasCongested bool
}

func newIngress(highWater, capacity int, wait *obs.Histogram) *ingress {
	if highWater < 1 {
		highWater = 1
	}
	if capacity <= highWater {
		capacity = highWater + 1
	}
	return &ingress{
		ring:      make([]*sim.Batch, capacity),
		stamps:    make([]int64, capacity),
		highWater: highWater,
		notify:    make(chan struct{}, 1),
		wait:      wait,
	}
}

// push enqueues one batch without ever blocking, returning the number of
// batches spilled so far (0 while healthy). Ownership of b transfers to
// the ingress (and onward to the consumer) unless the queue is drained, in
// which case b is released immediately.
func (q *ingress) push(b *sim.Batch) (spilled int64) {
	q.mu.Lock()
	if q.drained {
		q.mu.Unlock()
		b.Release()
		return 0
	}
	if q.n == len(q.ring) {
		// Hard bound: spill the oldest batch.
		old := q.ring[q.head]
		q.ring[q.head] = nil
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		q.spilled++
		old.Release()
	}
	slot := (q.head + q.n) % len(q.ring)
	q.ring[slot] = b
	q.stamps[slot] = time.Now().UnixNano()
	q.n++
	if q.n >= q.highWater {
		q.wasCongested = true
	}
	spilled = q.spilled
	q.mu.Unlock()
	q.wake()
	return spilled
}

// pop dequeues one batch without blocking. done reports that the stream is
// complete: no batch is queued and none will arrive.
func (q *ingress) pop() (b *sim.Batch, done bool, spilled int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n > 0 {
		b = q.ring[q.head]
		q.ring[q.head] = nil
		q.wait.Observe(time.Duration(time.Now().UnixNano() - q.stamps[q.head]))
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		return b, false, q.spilled
	}
	return nil, q.closed, q.spilled
}

// close marks the producer side complete and wakes the consumer.
func (q *ingress) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

// drain releases every queued batch and makes all future pushes release
// immediately — called once the consumer is gone (job terminal).
func (q *ingress) drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.drained = true
	for ; q.n > 0; q.n-- {
		q.ring[q.head].Release()
		q.ring[q.head] = nil
		q.head = (q.head + 1) % len(q.ring)
	}
}

func (q *ingress) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// spilledCount returns how many batches the hard bound dropped.
func (q *ingress) spilledCount() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.spilled
}

// depth returns the number of queued batches.
func (q *ingress) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// drainedBelow reports, once after each congestion, that the backlog
// has drained below low.
func (q *ingress) drainedBelow(low int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.wasCongested || q.n >= low {
		return false
	}
	q.wasCongested = false
	return true
}

// congested reports whether the backlog is at or above the high-water
// mark — the scheduler's cue to defer this job's slabs.
func (q *ingress) congested() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n >= q.highWater
}
