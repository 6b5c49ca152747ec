package serve

import (
	"context"
	"sync"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/obs"
	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/window"
)

// winTask is one window of one job in flight on the shared stat farm: a
// deep copy of the window's cuts (the job's stream recycles its cut
// storage the moment the window was submitted) plus the per-job sequence
// number that lets the job's reorder buffer republish results in window
// order however the engines interleave, and the number of trailing cuts
// this window is the first to contain (core.CutFrontier) — the only ones
// its engine summarises. Tasks are pooled; capture/release keep the copy
// allocation-free once warm.
type winTask struct {
	job   *Job
	seq   int
	fresh int
	buf   window.CopyBuffer
	win   window.Window
}

var winTaskPool = sync.Pool{New: func() any { return new(winTask) }}

func getWinTask(job *Job, seq, fresh int, w window.Window) *winTask {
	t := winTaskPool.Get().(*winTask)
	t.job, t.seq, t.fresh = job, seq, fresh
	t.win = t.buf.Capture(w)
	return t
}

func (t *winTask) release() {
	t.job = nil
	t.win = window.Window{}
	winTaskPool.Put(t)
}

// statFarm is the service-wide farm of statistical engines: a fixed set of
// engine goroutines, sized independently of the simulation pool, that all
// jobs feed through one queue. Each engine owns a reusable stats.Engine
// (and a reused WindowStat is *not* possible here — results are retained
// by result rings and subscribers — so the retained struct is allocated
// per window while all analysis scratch is reused). An engine summarises
// only its window's fresh cuts; window order is restored per job by
// Job.completeStat, whose in-order publish loop also fills in the cut
// summaries earlier windows computed (core.Assembler), so everything from
// publishLocked on sees complete windows. Fairness across tenants comes from
// the FIFO queue plus the per-job in-flight cap (Job.statSlots), which
// stops one heavy tenant from occupying every engine.
type statFarm struct {
	engines int
	tasks   chan *winTask
	hook    func(jobID string) // Options.statHook test seam, may be nil
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// closed/submitting gate the shutdown: Close refuses new submits and
	// waits out the in-flight ones before draining the task queue, so a
	// racing submit can never enqueue a task after the drain (which would
	// strand the task and its job's stat slot forever).
	mu         sync.Mutex
	done       sync.Cond
	closed     bool
	submitting int
}

func newStatFarm(engines, queueDepth int, hook func(jobID string)) *statFarm {
	if engines < 1 {
		engines = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &statFarm{
		engines: engines,
		tasks:   make(chan *winTask, queueDepth),
		hook:    hook,
		ctx:     ctx,
		cancel:  cancel,
	}
	f.done.L = &f.mu
	f.wg.Add(engines)
	for i := 0; i < engines; i++ {
		go f.engine()
	}
	return f
}

// Engines returns the farm width.
func (f *statFarm) Engines() int { return f.engines }

// submit hands one captured window to the farm, blocking only on farm
// capacity (queue full and every engine busy) or the submitting job's
// cancellation. The caller must already hold one of the job's stat slots.
func (f *statFarm) submit(job *Job, t *winTask) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		t.release()
		job.statSlotFree()
		return ErrClosed
	}
	f.submitting++
	f.mu.Unlock()
	var err error
	select {
	case f.tasks <- t:
	case <-job.ctx.Done():
		t.release()
		job.statSlotFree()
		err = job.ctx.Err()
	case <-f.ctx.Done():
		t.release()
		job.statSlotFree()
		err = ErrClosed
	}
	f.mu.Lock()
	f.submitting--
	if f.submitting == 0 && f.closed {
		f.done.Broadcast()
	}
	f.mu.Unlock()
	return err
}

// engine is one statistical engine: it analyses windows from any job with
// a private reusable scratch engine and reports each result back to the
// owning job's reorder buffer.
func (f *statFarm) engine() {
	defer f.wg.Done()
	eng := stats.NewEngine()
	for {
		select {
		case <-f.ctx.Done():
			return
		case t := <-f.tasks:
			f.analyse(eng, t)
		}
	}
}

func (f *statFarm) analyse(eng *stats.Engine, t *winTask) {
	job, seq, fresh := t.job, t.seq, t.fresh
	if job.terminal() {
		t.release()
		job.statSlotFree()
		return
	}
	if f.hook != nil {
		// Test seam (Options.statHook): emulate an expensive statistical
		// configuration, or a stalled tenant, per job.
		f.hook(job.id)
	}
	start := time.Now()
	var ws core.WindowStat
	err := core.AnalyseWindowFresh(&ws, eng, t.win, job.species, job.cfg, fresh)
	lat := time.Since(start)
	job.metrics.analyse.Observe(lat)
	job.metrics.cutSummaries.Add(uint64(fresh))
	t.release()
	if err != nil {
		job.statSlotFree()
		job.fail(err)
		return
	}
	job.completeStat(seq, ws, fresh, lat)
}

// Close stops the farm: it refuses new submits, waits out the in-flight
// ones (every job must already be terminal, so a submit blocked on a full
// queue unblocks via its job's cancelled context), stops the engines and
// releases everything still queued.
func (f *statFarm) Close() {
	f.mu.Lock()
	f.closed = true
	for f.submitting > 0 {
		f.done.Wait()
	}
	f.mu.Unlock()
	f.cancel()
	f.wg.Wait()
	for {
		select {
		case t := <-f.tasks:
			// Free the slot too, preserving the acquire/free pairing even
			// though every job is terminal by here (nobody is waiting).
			t.job.statSlotFree()
			t.release()
		default:
			return
		}
	}
}

// ingress is a job's bounded, non-blocking sample-batch queue between the
// pool collector and the job's windower goroutine. The collector side
// never blocks: a push over the high-water mark marks the job congested —
// which makes the pool defer the job's remaining quanta instead of
// simulating into a queue nobody drains — and a push over the hard
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

// congested reports whether the backlog is at or above the high-water
// mark — the pool's cue to defer this job's quanta.
func (q *ingress) congested() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n >= q.highWater
}
