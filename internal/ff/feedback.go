package ff

import "context"

// FeedbackWorker processes one task and may hand a continuation task back to
// the farm dispatcher (FastFlow's farm-with-feedback). DoStep may emit any
// number of outputs; a non-nil feedback re-enters the dispatch queue and the
// task stays in flight, a nil feedback marks the task complete.
//
// This is the skeleton behind the CWC simulation farm: a simulation engine
// advances a trajectory by one simulation quantum, emits the samples
// produced in that quantum, and reschedules the (partially advanced)
// simulation task along the feedback channel until its end time is reached.
type FeedbackWorker[In, Out any] interface {
	DoStep(ctx context.Context, task In, emit Emit[Out]) (feedback *In, err error)
}

// FeedbackWorkerFunc adapts a function to the FeedbackWorker interface.
type FeedbackWorkerFunc[In, Out any] func(ctx context.Context, task In, emit Emit[Out]) (*In, error)

// DoStep implements FeedbackWorker.
func (f FeedbackWorkerFunc[In, Out]) DoStep(ctx context.Context, task In, emit Emit[Out]) (*In, error) {
	return f(ctx, task, emit)
}

// TaskQueue is the dispatcher's pending-task buffer. The default is a
// plain FIFO; injecting a different implementation changes which pending
// task the farm dispatches next (e.g. weighted fair queueing across
// tenants) without touching the farm's dataflow. Implementations need not
// be goroutine-safe: the dispatcher is the only goroutine that calls them.
type TaskQueue[In any] interface {
	Push(In)
	Pop() (In, bool)
	Len() int
}

// sliceQueue is the default TaskQueue: global arrival order, the exact
// dispatch behaviour the farm had before queues were pluggable.
type sliceQueue[In any] struct {
	items []In
}

func (q *sliceQueue[In]) Push(v In) { q.items = append(q.items, v) }

func (q *sliceQueue[In]) Pop() (In, bool) {
	var zero In
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}

func (q *sliceQueue[In]) Len() int { return len(q.items) }

// FarmFeedback is a task farm whose workers can reschedule tasks back to the
// dispatcher. Scheduling is on-demand (the only policy that makes sense with
// feedback-induced load imbalance). The farm terminates when the external
// input stream is exhausted and no task is in flight.
type FarmFeedback[In, Out any] struct {
	n       int
	factory func(workerID int) FeedbackWorker[In, Out]
	cfg     config
	queue   TaskQueue[In]
}

// NewFarmFeedback builds a feedback farm of n workers.
func NewFarmFeedback[In, Out any](n int, factory func(workerID int) FeedbackWorker[In, Out], opts ...Option) *FarmFeedback[In, Out] {
	if n < 1 {
		n = 1
	}
	return &FarmFeedback[In, Out]{n: n, factory: factory, cfg: newConfig(opts)}
}

// SetTaskQueue replaces the dispatcher's pending-task buffer. Must be
// called before Run. A nil queue restores the default FIFO.
func (f *FarmFeedback[In, Out]) SetTaskQueue(q TaskQueue[In]) { f.queue = q }

// Run implements Node.
func (f *FarmFeedback[In, Out]) Run(ctx context.Context, in <-chan In, emit Emit[Out]) error {
	taskqDepth := f.cfg.queueDepth
	if f.queue != nil {
		// A pluggable scheduler decides dispatch order at the moment a
		// worker asks for work: buffering dispatched tasks would re-impose
		// arrival order downstream of the queue and void its policy, so
		// dispatch is a rendezvous (at most one committed task in flight).
		taskqDepth = 0
	}
	taskq := make(chan In, taskqDepth)      // shared on-demand queue
	fbq := make(chan In, f.n)               // worker → dispatcher reschedules
	completions := make(chan struct{}, f.n) // worker → dispatcher task-done
	collect := make(chan Out, f.cfg.queueDepth)

	g := newGroup(ctx)

	// Dispatcher: merges the external stream and the feedback stream into
	// the pending queue, tracking in-flight tasks for termination. The
	// unbounded pending queue guarantees the dispatcher is always ready to
	// drain feedback, which rules out the classic feedback-cycle deadlock.
	//
	// The held-item pattern commits to the queue's choice one task at a
	// time: the dispatcher pops the next task only when its hands are
	// empty, then offers exactly that task until a worker takes it.
	// Dispatch is therefore non-preemptive — a fair queue shapes the order
	// tasks leave the pending set, not tasks already offered.
	g.Go(func(ctx context.Context) error {
		defer close(taskq)
		queue := f.queue
		if queue == nil {
			queue = &sliceQueue[In]{}
		}
		var held In
		haveHeld := false
		inflight := 0
		external := in
		for external != nil || inflight > 0 {
			if !haveHeld {
				held, haveHeld = queue.Pop()
			}
			var sendCh chan In
			if haveHeld {
				sendCh = taskq
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case t, ok := <-external:
				if !ok {
					external = nil
					continue
				}
				inflight++
				queue.Push(t)
			case t := <-fbq:
				queue.Push(t)
			case <-completions:
				inflight--
			case sendCh <- held:
				haveHeld = false
			}
		}
		return nil
	})

	workers := newGroup(g.ctx)
	for w := 0; w < f.n; w++ {
		worker := f.factory(w)
		workers.Go(func(ctx context.Context) error {
			wemit := emitTo(ctx, collect)
			for {
				task, ok, err := recvOne(ctx, taskq)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				fb, err := worker.DoStep(ctx, task, wemit)
				if err != nil {
					return err
				}
				if fb != nil {
					select {
					case fbq <- *fb:
					case <-ctx.Done():
						return ctx.Err()
					}
				} else {
					select {
					case completions <- struct{}{}:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
			}
		})
	}
	g.Go(func(ctx context.Context) error {
		defer close(collect)
		return workers.Wait()
	})
	g.Go(func(ctx context.Context) error {
		return runCollector(ctx, collect, emit)
	})
	return g.Wait()
}

// runCollector serializes the concurrent worker emissions into ordered calls
// of the downstream emit (which therefore never sees concurrency).
func runCollector[Out any](ctx context.Context, collect <-chan Out, emit Emit[Out]) error {
	for {
		v, ok, err := recvOne(ctx, collect)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := emit(v); err != nil {
			return err
		}
	}
}
