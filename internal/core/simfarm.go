package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cwcflow/internal/sim"
)

// SimFarm is the simulation stage of Fig. 2: a farm of simulation engines
// with a feedback channel. A slab — a trajectory's task and the sample
// index it stops at — enters the farm's queue, a free worker runs one
// slice of it, and the slab re-enters the queue through the feedback
// channel until its last slice. Scheduling is on demand, the only policy
// that balances heavily uneven trajectories; with every slab in one FIFO
// the farm is breadth-first in simulated time. Each slice travels to the
// farm's collector, one goroutine that hands it to the slab's owner, so an
// owner never sees two of its slices at once.
//
// Run opens one farm per run and the cwc-dist worker one per job
// connection; the serve package keeps one for all its jobs, whose slab
// schedulers inject into it, with a fair TaskQueue across tenants and a
// SliceBudget. The farm never ends by itself: owners know when their slabs
// are done, and Close stops it.
type SimFarm struct {
	workers int
	budget  SliceBudget
	queue   TaskQueue
	inject  chan SimSlab
	taskq   chan SimSlab // dispatcher → workers, on demand
	fbq     chan SimSlab // workers → dispatcher: a slot per worker, so feedback never waits
	collect chan ownedSlice
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// SimSlab is one slab riding a SimFarm: a trajectory's live task, which
// leaves the farm at sample index Until, and the job it belongs to.
type SimSlab struct {
	// Owner is the slab's job: the farm asks it before and after every
	// slice and hands it every slice (see SlabOwner).
	Owner SlabOwner
	// Task is the trajectory's task, advanced in place.
	Task *sim.Task
	// Until is the sample index the slab stops at: the first index not
	// simulated, modulo an SSA step that crosses it. Zero, or any index
	// past the trajectory's end, runs to the end.
	Until int
	// Window is the slice boundary: no slice runs past a multiple of it,
	// which keeps dispatch breadth-first across the owner's windows.
	Window int

	enq    int64         // unix ns the slab last entered the queue
	waited time.Duration // how long it waited there for this slice
}

// Slice is one stay of a slab on a farm worker, as its owner sees it: the
// samples of one or more quanta of one trajectory in a single pooled
// batch, and where the slab stands after them. Ownership of the batch
// moves with the slice: whoever stops its forward progress releases it.
// The serve package builds one from every remote worker message too, so a
// job takes local and remote results the same way.
type Slice struct {
	Traj int
	// Start is the index of the first sample the slice could emit: the
	// task's next sample before it ran.
	Start int
	// Batch holds the slice's samples; nil when it crossed no sample
	// instant.
	Batch *sim.Batch
	// Quanta is the number of simulation quanta the slice ran, Elapsed
	// their service time and Fired the SSA steps they took. Wait is how
	// long the slab waited in the farm's queue before the slice.
	Quanta  int
	Elapsed time.Duration
	Wait    time.Duration
	Fired   uint64
	// SlabEnd marks the slab's last slice: the task leaves the farm, at
	// its Until or at the trajectory's end, or the owner ended it unrun.
	SlabEnd bool
	// TaskDone marks the trajectory complete; Dead and Steps (its
	// cumulative SSA step count) qualify it.
	TaskDone bool
	Dead     bool
	Steps    uint64
	// Snap is the engine snapshot an owner's AfterSlice took at the
	// slab's Until, for the next slab to resume from.
	Snap []byte
	// Err is a failure of the slice; it ends the slab.
	Err error
}

// A SlabOwner is the job a slab belongs to: one Run, one cwc-dist worker
// connection, or one job's slab scheduler in the serve package. The farm
// calls it at the three points where an owner has a say.
type SlabOwner interface {
	// Admit runs on the farm worker before each slice of s. False ends the
	// slab unrun: the farm delivers sl, which Admit may fill in, as the
	// slab's last slice.
	Admit(s *SimSlab, sl *Slice) bool
	// AfterSlice runs on the farm worker after each slice, before it is
	// delivered. The owner may checkpoint s.Task, count the slice, snapshot
	// the engine into sl.Snap, or move the slab's end: clear sl.SlabEnd
	// and raise s.Until to run on, or set sl.SlabEnd to stop.
	AfterSlice(s *SimSlab, sl *Slice)
	// Deliver runs on the farm's collector goroutine, one slice at a time,
	// each slab's slices in order. An error stops the farm.
	Deliver(sl Slice) error
}

// TaskQueue is the farm's pending-slab buffer, consulted only by its
// dispatcher goroutine, so it need not be safe for concurrent use. The
// default is a FIFO; the serve package injects a fair queue across
// tenants.
type TaskQueue interface {
	Push(SimSlab)
	Pop() (SimSlab, bool)
}

// fifo is the default TaskQueue: global arrival order.
type fifo struct{ items []SimSlab }

func (q *fifo) Push(s SimSlab) { q.items = append(q.items, s) }

func (q *fifo) Pop() (SimSlab, bool) {
	if len(q.items) == 0 {
		return SimSlab{}, false
	}
	s := q.items[0]
	q.items[0] = SimSlab{}
	q.items = q.items[1:]
	return s, true
}

// SliceBudget bounds the work of one slice beyond its window boundary,
// Until and the trajectory's end. With Steps > 0 a slice also ends once it
// has fired Steps SSA steps or run for Time, whichever comes first, after
// at least one quantum. The zero value sets no budget.
type SliceBudget struct {
	Steps uint64
	Time  time.Duration
}

// ownedSlice is one slice on its way to the collector.
type ownedSlice struct {
	owner SlabOwner
	sl    Slice
}

// NewSimFarm starts a farm of workers simulation engines. queueDepth sets
// the capacity of its dispatch and collect channels. queue, when non-nil,
// replaces the default FIFO; dispatch is then a rendezvous, so the queue
// decides which slab runs at the moment a worker asks for one, and
// buffered slabs cannot void its order. budget bounds every slice.
func NewSimFarm(workers, queueDepth int, queue TaskQueue, budget SliceBudget) *SimFarm {
	workers, queueDepth = max(workers, 1), max(queueDepth, 1)
	taskqDepth := queueDepth
	if queue != nil {
		taskqDepth = 0
	} else {
		queue = &fifo{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &SimFarm{
		workers: workers,
		budget:  budget,
		queue:   queue,
		inject:  make(chan SimSlab),
		taskq:   make(chan SimSlab, taskqDepth),
		fbq:     make(chan SimSlab, workers),
		collect: make(chan ownedSlice, queueDepth),
		ctx:     ctx,
		cancel:  cancel,
	}
	f.wg.Add(workers + 2)
	go f.dispatch()
	for i := 0; i < workers; i++ {
		go f.work()
	}
	go f.collector()
	return f
}

// Workers returns the farm width.
func (f *SimFarm) Workers() int { return f.workers }

// Inject hands one slab to the farm's dispatcher. The dispatcher buffers
// pending slabs without bound and never waits on a worker or the
// collector, so Inject returns promptly from any goroutine, the
// collector's included. On a stopped farm the slab is dropped.
func (f *SimFarm) Inject(s SimSlab) {
	select {
	case f.inject <- s:
	case <-f.ctx.Done():
	}
}

// Close stops the farm: slices already running finish, everything else is
// dropped, and no Deliver runs after Close returns.
func (f *SimFarm) Close() {
	f.cancel()
	f.wg.Wait()
}

// dispatch merges injected and fed-back slabs into the queue and offers
// them to the workers. It commits to the queue's choice one slab at a
// time: it pops the next slab only when its hands are empty, then offers
// exactly that slab until a worker takes it. The unbounded queue keeps
// the dispatcher ready to drain feedback, which rules out the classic
// feedback-cycle deadlock.
func (f *SimFarm) dispatch() {
	defer f.wg.Done()
	var held SimSlab
	haveHeld := false
	for {
		if !haveHeld {
			if held, haveHeld = f.queue.Pop(); haveHeld {
				held.waited = time.Duration(time.Now().UnixNano() - held.enq)
			}
		}
		var offer chan SimSlab
		if haveHeld {
			offer = f.taskq
		}
		var s SimSlab
		select {
		case <-f.ctx.Done():
			return
		case s = <-f.inject:
		case s = <-f.fbq:
		case offer <- held:
			haveHeld = false
			continue
		}
		s.enq = time.Now().UnixNano()
		f.queue.Push(s)
	}
}

// work is one simulation engine: it runs one slice of each slab it takes
// and feeds the slab back unless that slice was its last.
func (f *SimFarm) work() {
	defer f.wg.Done()
	// The hooks take pointers to both, so they live on the heap: one cell
	// each per worker, not per slice.
	var s SimSlab
	var sl Slice
	for {
		select {
		case <-f.ctx.Done():
			return
		case s = <-f.taskq:
		}
		RunSlice(&s, &sl, f.budget)
		select {
		case f.collect <- ownedSlice{s.Owner, sl}:
		case <-f.ctx.Done():
			return
		}
		if sl.SlabEnd {
			continue
		}
		select {
		case f.fbq <- s:
		case <-f.ctx.Done():
			return
		}
	}
}

// collector hands every slice to its owner, one at a time.
func (f *SimFarm) collector() {
	defer f.wg.Done()
	for {
		select {
		case <-f.ctx.Done():
			return
		case o := <-f.collect:
			if err := o.owner.Deliver(o.sl); err != nil {
				f.cancel()
				return
			}
		}
	}
}

// RunSlice runs one slice of s into sl: the owner's Admit, then
// simulation quanta gathered into one pooled batch until the task is done,
// the slab reaches its Until, the task reaches a multiple of s.Window or
// budget is spent, then the owner's AfterSlice. sl is overwritten and
// ready for delivery; the slab goes on unless sl.SlabEnd is set. It is the
// farm worker's body, exported for tests that drive slices by hand.
func RunSlice(s *SimSlab, sl *Slice, budget SliceBudget) {
	t := s.Task
	*sl = Slice{Traj: t.Traj, Start: t.NextIndex(), Wait: s.waited}
	if !s.Owner.Admit(s, sl) {
		sl.SlabEnd = true
		return
	}
	until := s.Until
	if until <= 0 || until > t.NumSamples() {
		until = t.NumSamples()
	}
	window := max(s.Window, 1)
	stop := min((t.NextIndex()/window+1)*window, until)
	b := sim.GetBatch()
	steps0 := t.Steps()
	start := time.Now()
	for !t.Done() && t.NextIndex() < stop {
		if err := t.RunQuantumBatch(b); err != nil {
			b.Release()
			sl.Err, sl.TaskDone, sl.SlabEnd = err, true, true
			return
		}
		sl.Quanta++
		if budget.Steps > 0 && (t.Steps()-steps0 >= budget.Steps || time.Since(start) >= budget.Time) {
			break
		}
	}
	sl.Elapsed = time.Since(start)
	sl.Fired = t.Steps() - steps0
	if len(b.Samples) > 0 {
		sl.Batch = b
	} else {
		b.Release()
	}
	if t.Done() {
		sl.TaskDone, sl.Dead, sl.Steps = true, t.Dead(), t.Steps()
	}
	sl.SlabEnd = t.NextIndex() >= until
	s.Owner.AfterSlice(s, sl)
}

// BuildTask builds trajectory traj's task for cfg as the pipeline's
// generation stage does (see NewTrajectoryTask) and, when snap is non-nil,
// restores it from snap. spare, when non-nil, is a task of the same cfg
// that nothing else holds any more: a restore reuses its engine instead of
// building one.
func BuildTask(cfg Config, traj int, snap []byte, spare *sim.Task) (*sim.Task, error) {
	if snap == nil || spare == nil {
		task, err := NewTrajectoryTask(cfg, traj)
		if err != nil || snap == nil {
			return task, err
		}
		spare = task
	}
	spare.Traj = traj
	if err := spare.Restore(snap); err != nil {
		return nil, fmt.Errorf("core: trajectory %d: %w", traj, err)
	}
	return spare, nil
}
