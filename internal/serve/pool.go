package serve

import (
	"context"
	"sync"
	"time"

	"cwcflow/internal/ff"
	"cwcflow/internal/sim"
)

// Pool is the shared simulation worker pool: one long-lived feedback farm
// (ff.FarmFeedback) whose input stream stays open for the lifetime of the
// service and carries the local slabs of every active job, each injected
// by its job's slab scheduler (see slabSched). On-demand scheduling
// interleaves the jobs' slabs, so a newly started job receives service
// within one slice of the running jobs, and within a slab the feedback
// channel keeps load balanced across heavily uneven trajectories exactly
// as in the batch pipeline.
//
// Workers emit one delivery per slice — the samples of one or, when quanta
// are cheap, several quanta of one trajectory in a single batch (see
// poolWorker) — so the fixed cost of crossing the dispatcher and the farm
// collector is amortised over a burst. The collector routes each delivery to
// the owning job's ingress queue with a non-blocking push: a job whose
// analysis lags cannot stall delivery to any other tenant. Backpressure on
// a lagging job is applied at the *scheduling* step instead: its scheduler
// grants no slab while the job's ingress is over its high-water mark, and
// a worker that picks up a slab of such a job ends it without running a
// quantum, returning the head to the scheduler's FIFO until the job's
// windower drains below its low-water mark. The pool's capacity flows to
// the tenants that can absorb results (a congested tenant costs neither
// worker time nor dispatcher churn while it waits), and there is still no
// point simulating faster than a job can analyse.
type Pool struct {
	workers int
	submit  chan poolTask
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu  sync.Mutex
	err error
}

// poolTask is one local slab riding the shared farm: a job's trajectory
// task, which leaves the feedback loop at sample index until (0: the
// trajectory's end). enq is the scheduler-queue entry stamp (unix
// nanoseconds), written by the timedQueue decorator on push and consumed
// on pop for the sched-wait histogram; zero for tasks that bypassed the
// queue.
type poolTask struct {
	job   *Job
	task  *sim.Task
	until int
	enq   int64
}

// delivery is one message from a pool worker to the routing collector: a
// slice's pooled batch of samples and/or a task-completion marker.
// Ownership of the batch transfers with the message — whoever stops its
// forward progress (the drop paths in Job.accept, or the job's analysis
// goroutine after pushing its samples) releases it back to the shared
// pool. Simulator failures travel here too — returning them from the
// worker would tear down the shared farm and every other job with it.
type delivery struct {
	job     *Job
	traj    int // trajectory id, for the slab scheduler's bookkeeping
	batch   *sim.Batch
	elapsed time.Duration // service time of the quanta behind this delivery
	quanta  int           // how many those were (0 means 1)
	// slabEnd marks the last delivery of a local slab: the task left the
	// farm, at its until or at the trajectory's end.
	slabEnd  bool
	taskDone bool
	dead     bool
	steps    uint64
	err      error
}

// NewPool starts a pool of the given width. queueDepth sets the farm's
// internal channel capacities. queue, when non-nil, replaces the farm
// dispatcher's pending-task FIFO with a pluggable scheduler (sched.FIFO or
// sched.WFQ); every slice — first dispatch and feedback reschedules
// alike — passes through it, so a fair queue enforces tenant shares at
// slice granularity: one dispatch slot is one quantum or one work budget
// of cheap ones, whichever is more.
func NewPool(workers, queueDepth int, queue ff.TaskQueue[poolTask]) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		workers: workers,
		submit:  make(chan poolTask),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	farm := ff.NewFarmFeedback(workers, func(int) ff.FeedbackWorker[poolTask, delivery] {
		var fb poolTask // per-worker feedback cell, read before the next DoStep
		return ff.FeedbackWorkerFunc[poolTask, delivery](func(_ context.Context, pt poolTask, emit ff.Emit[delivery]) (*poolTask, error) {
			again, err := poolWorker(&pt, emit, sliceTime)
			if !again || err != nil {
				return nil, err
			}
			fb = pt
			return &fb, nil
		})
	}, ff.WithQueueDepth(queueDepth))
	farm.SetTaskQueue(queue)
	go func() {
		defer close(p.done)
		err := farm.Run(ctx, p.submit, p.route)
		if err != nil && ctx.Err() == nil {
			p.mu.Lock()
			p.err = err
			p.mu.Unlock()
		}
	}()
	return p
}

// A slice — one task's stay on a worker — is bounded by a fixed amount of
// work, so that cheap quanta share the fixed cost of a trip through the
// dispatcher and the collector while an expensive quantum still leaves
// after one. The budget is sliceSteps SSA steps (128 direct-method steps
// are about 8 µs) or sliceTime on the worker, whichever is spent first:
// the step count ends the slices of the built-in engines at the same
// quantum on every run, the clock bounds an engine whose steps are few and
// dear or not counted at all. Both sit below one neurospora quantum (≈ 290
// steps, ≈ 25 µs): a longer budget would coalesce those too, and a
// newcomer's first window waits behind every slice queued ahead of it.
const (
	sliceSteps = 128
	sliceTime  = 10 * time.Microsecond
)

// poolWorker advances one task by one slice: simulation quanta batched
// into a single pooled delivery until the task is done, its slab's until
// or the next window boundary is reached, or the slice's work budget
// (sliceSteps steps or maxTime, sliceTime outside tests) is spent. Stopping
// at window boundaries keeps dispatch breadth-first (no trajectory runs a
// window ahead within one slice), which is what the slab scheduler's skew
// bound and a prompt first window rely on. A slab that reaches its until
// runs on as the trajectory's next slab when the job's scheduler extends
// it (pt.until moves on). again reports whether the task is unfinished
// (and short of its slab's until) and should re-enter the dispatcher
// through the farm's feedback channel.
func poolWorker(pt *poolTask, emit ff.Emit[delivery], maxTime time.Duration) (again bool, err error) {
	job, task := pt.job, pt.task
	traj := task.Traj
	if job.terminal() {
		// The job was cancelled or failed while this task was queued:
		// drop the task, but still report completion so the job's
		// accounting (and sample-stream close) stays consistent.
		return false, emit(delivery{job: job, traj: traj, taskDone: true, slabEnd: true})
	}
	if job.congested() {
		// The job's ingress queue is over its high-water mark: simulating
		// another slice would only grow a backlog its analysis cannot
		// drain. End the slab unrun — off the farm, costing no worker time
		// and no dispatcher churn: the head waits in the scheduler's FIFO,
		// which grants nothing while the job is congested, until the
		// windower drains below the low-water mark and kicks it.
		job.noteDeferred()
		return false, emit(delivery{job: job, traj: traj, slabEnd: true})
	}
	start := time.Now()
	b := sim.GetBatch()
	stop := (task.NextIndex()/job.cfg.WindowSize + 1) * job.cfg.WindowSize
	if pt.until > 0 && pt.until < stop {
		stop = pt.until
	}
	steps0 := task.Steps()
	quanta := 0
	for {
		if err := task.RunQuantumBatch(b); err != nil {
			b.Release()
			return false, emit(delivery{job: job, traj: traj, err: err, taskDone: true, slabEnd: true})
		}
		quanta++
		if task.Done() || task.NextIndex() >= stop {
			break
		}
		if task.Steps()-steps0 >= sliceSteps || time.Since(start) >= maxTime {
			break
		}
	}
	if len(b.Samples) == 0 {
		b.Release()
		b = nil
	}
	if job.persist != nil {
		// Durable store enabled: checkpoint the engine state at slice
		// boundaries (rate-limited per trajectory inside).
		job.maybeCheckpoint(task)
	}
	if job.tenantQuanta != nil {
		job.tenantQuanta.Add(int64(quanta))
	}
	// Accounting stays per quantum, as for a remote slab: counters add the
	// slice's quanta and the histogram takes their mean once for each.
	elapsed := time.Since(start)
	job.metrics.localQuantum.ObserveN(elapsed/time.Duration(quanta), quanta)
	job.metrics.quantaLocal.Add(uint64(quanta))
	job.obsTenantQuanta.Add(uint64(quanta))
	d := delivery{job: job, traj: traj, batch: b, elapsed: elapsed, quanta: quanta}
	if task.Done() {
		d.taskDone, d.dead, d.steps = true, task.Dead(), task.Steps()
	}
	d.slabEnd = d.taskDone || (pt.until > 0 && task.NextIndex() >= pt.until)
	if d.slabEnd && !d.taskDone {
		if until := job.sched.extend(traj, task.NextIndex()); until > 0 {
			pt.until, d.slabEnd = until, false
		}
	}
	if err := emit(d); err != nil {
		return false, err
	}
	return !d.slabEnd, nil
}

// route is the farm's collector body. It runs in a single goroutine, so
// per-task delivery order is preserved for locally-simulated tasks. Jobs
// sharded across remote workers also receive deliveries from their
// per-connection reader goroutines; accept is safe for that concurrency
// (per-job mutex plus the ingress queue's own lock), and per-task order
// still holds because any one trajectory streams from one source at a
// time.
func (p *Pool) route(d delivery) error { return d.job.accept(p.ctx, d) }

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Err reports a farm failure, if any (nil while healthy).
func (p *Pool) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// inject hands one granted slab straight to the farm's dispatcher. The
// dispatcher buffers pending tasks without bound and never waits on a
// collector or a worker, so the send returns promptly from any goroutine,
// the collector's included; on pool shutdown the task is dropped like a
// queued one.
func (p *Pool) inject(pt poolTask) {
	select {
	case p.submit <- pt:
	case <-p.ctx.Done():
	}
}

// Close aborts the pool: in-flight quanta finish, everything else is
// dropped. Jobs still running should be failed by the caller first.
func (p *Pool) Close() {
	p.cancel()
	<-p.done
}
