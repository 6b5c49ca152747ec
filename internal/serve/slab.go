package serve

import (
	"fmt"
	"sync"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/sim"
	"cwcflow/internal/store"
)

// slabSched is one job's slab scheduler, the only path by which any job's
// trajectories reach a simulator. The unit of work is a slab —
// (trajectory, engine snapshot or nil = build from the seed,
// until-sample-index) — a pure function returning that stretch's samples
// plus the engine snapshot at its end, so no site holds trajectory state
// between slabs and any slab can run on any site: the local simulation
// pool, or a remote sim worker (cwc-dist worker) over a dff stream (see
// workerConn).
//
// The job keeps one FIFO of idle trajectory heads. Pool slots and worker
// connections both pull from its front and a trajectory returns to its
// back when its slab's result is in: round-robin over trajectories, i.e.
// breadth-first in simulated time, the order the paper's feedback farm
// gives a single process. Slabs are one window of cuts long and
// window-aligned, so round r of the queue is window r, and the skew gate
// lets a trajectory lead the slowest by at most one round: the aligner
// buffers at most two windows per trajectory, and window r streams out
// while round r+1 is simulated. Every trajectory of the job reaches done
// through this one queue.
//
// Determinism rests on two invariants: (1) a snapshot restores species,
// clock, step counter and RNG, and sim.Task never truncates an SSA step at
// a boundary, so a trajectory is bit-identical however it is cut into
// slabs and wherever they run; (2) filter admits a delivery iff it extends
// the trajectory's frontier, so the aligner sees every (trajectory, index)
// sample exactly once and the window digest matches a single-process run.
// The second also makes replays safe: a requeued slab, a recovered job
// restarting below its resume cut, and a trajectory whose snapshot would
// not restore all re-simulate a prefix filter drops.
//
// An all-local job's pool slab that reaches its until while the FIFO is
// empty is extended in place (see extend) instead of ending: the grant its
// end would lead to, without the trip through the collector.
//
// A lost worker costs its in-flight slabs, which requeue at the front of
// the FIFO from the snapshots their heads still hold. Engines that cannot
// snapshot (the CWC term rewriter) get one run-to-the-end slab per
// trajectory, replayed from the seed when its worker is lost. Results
// merge into the job's ordinary ingress ring via Job.accept, so everything
// downstream is oblivious to where a slab was simulated.
type slabSched struct {
	srv     *Server
	job     *Job
	timeout time.Duration   // per-connection result watchdog
	window  int             // slab length in samples
	samples int             // samples per trajectory
	hook    func(slabEvent) // Options.slabHook test seam, may be nil

	mu   sync.Mutex
	wake *sync.Cond // readers blocked on a congested ingress (L = &mu)
	// stateless: the model's engine snapshots, so slabs migrate between
	// sites; otherwise every slab runs to its trajectory's end. Set by
	// start, before the first grant.
	stateless bool
	heads     []head // per trajectory
	fifo      []int  // idle trajectories, next slab first
	// gated holds idle trajectories the skew gate turned away, two rounds
	// ahead of the slowest: they rejoin the FIFO's front, in order, when
	// minRound advances, so a grant pass never rescans them.
	gated     []int
	conns     map[*workerConn]struct{}
	connsGone chan struct{} // closed when the last connection retires
	local     int           // slabs in flight on the local pool
	localCap  int
	// inRound counts unfinished trajectories per round (nextIdx/window);
	// minRound, the lowest occupied one, is the skew gate's clock.
	inRound       []int
	minRound      int
	doneCount     int
	assignsClosed bool // all trajectories done: streams closing gracefully
	closed        bool // job went terminal: hard stop, no requeues
}

// head is one trajectory between slabs. Its engine state lives in exactly
// one place: the live local task (the last slab ran here), the snapshot
// the last remote slab returned or the journal held, or — both nil — the
// seed. A head granted to a worker keeps its snapshot: losing the worker
// loses only the slab.
type head struct {
	nextIdx int // frontier: the next sample index the analysis has not seen
	task    *sim.Task
	snap    []byte
	done    bool
}

// slabEvent is what the Options.slabHook test seam sees, under rj.mu.
type slabEvent struct {
	kind       string // "grant", "accept" or "park"
	traj       int
	start, end int  // sample range of the slab (grant) or message (accept, park)
	remote     bool // grant: bound for a worker, not the local pool
	done       bool // accept: the trajectory finished
}

// localSlab is a slab granted to the local pool, between grantLocked
// (under rj.mu) and runLocal (outside it).
type localSlab struct{ traj, until int }

// newSlabSched builds a job's scheduler with every trajectory at its seed,
// queued in trajectory order. Nothing is granted before start.
func newSlabSched(s *Server, job *Job) *slabSched {
	n, samples := job.cfg.Trajectories, job.totalCuts
	rj := &slabSched{
		srv:       s,
		job:       job,
		timeout:   s.opts.WorkerTimeout,
		window:    job.cfg.WindowSize,
		samples:   samples,
		hook:      s.opts.slabHook,
		heads:     make([]head, n),
		fifo:      make([]int, n),
		conns:     make(map[*workerConn]struct{}),
		connsGone: make(chan struct{}),
		localCap:  s.pool.Workers(),
		inRound:   make([]int, samples/job.cfg.WindowSize+1),
	}
	rj.wake = sync.NewCond(&rj.mu)
	rj.inRound[0] = n
	for i := range rj.fifo {
		rj.fifo[i] = i
	}
	return rj
}

// resume seeds the heads of a recovered or adopted job from its journal:
// every trajectory's frontier is the resume cut — samples below it fed the
// durably published windows — and its state the newest checkpoint at or
// below the cut, or the seed when there is none. Each trajectory then
// re-simulates from its checkpoint up to the cut, a prefix filter drops.
// Call before start.
func (rj *slabSched) resume(rec *store.JobRecord, cut int) {
	cut = min(cut, rj.samples)
	rj.inRound[0] = 0
	rj.minRound = cut / rj.window
	rj.inRound[rj.minRound] = len(rj.heads)
	for i := range rj.heads {
		rj.heads[i].nextIdx = cut
		if cp, ok := rec.BestCheckpoint(i, cut); ok {
			rj.heads[i].snap = cp.Sim
		}
	}
}

// start connects the scheduler to its sites: it builds trajectory 0's task
// — the probe for whether the engine snapshots, kept as head 0's state when
// that is the seed — and dials the registry's live workers. With none
// reachable the job is all-local: localCap covers every trajectory and the
// pool's own dispatcher paces them. The windower makes the first grant.
func (rj *slabSched) start() error {
	probe, err := core.NewTrajectoryTask(rj.job.cfg, 0)
	if err != nil {
		return err
	}
	conns := rj.dial()
	rj.mu.Lock()
	if rj.closed {
		// Cancelled while dialing: stop found no connection to close.
		rj.mu.Unlock()
		for _, wc := range conns {
			wc.conn.Close()
		}
		return nil
	}
	rj.stateless = probe.Snapshots()
	if rj.heads[0].snap == nil {
		rj.heads[0].task = probe
	}
	for _, wc := range conns {
		rj.conns[wc] = struct{}{}
	}
	if len(conns) == 0 {
		rj.localCap = len(rj.heads)
	}
	rj.mu.Unlock()
	if len(conns) == 0 {
		return nil
	}
	spec, cfg := rj.job.spec, rj.job.cfg
	hdr := core.JobHeader{
		Model: core.ModelRef{Name: spec.Model, Omega: spec.Omega},
		End:   cfg.End, Quantum: cfg.Quantum, Period: cfg.Period,
		BaseSeed: cfg.BaseSeed, Slab: cfg.WindowSize, TraceID: rj.job.trace.ID(),
	}
	for _, wc := range conns {
		go wc.sender(hdr)
		go wc.reader()
	}
	go rj.watchdog()
	return nil
}

// filter runs inside Job.accept for every delivery (local and remote): it
// admits the samples that extend the trajectory's frontier — a batch is
// contiguous, so a replayed prefix is one slice expression, not a scan —
// and squashes duplicate completion markers, so the windower sees each
// sample and each completion exactly once however many times a slab was
// (re)started.
func (rj *slabSched) filter(d *core.Slice) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	h := &rj.heads[d.Traj]
	round, start := h.nextIdx/rj.window, h.nextIdx
	if b := d.Batch; b != nil {
		if skip := start - b.Samples[0].Index; h.done || skip < 0 || skip >= len(b.Samples) {
			b.Release()
			d.Batch = nil
		} else {
			b.Samples = b.Samples[:copy(b.Samples, b.Samples[skip:])]
			h.nextIdx += len(b.Samples)
		}
	}
	if h.done {
		d.TaskDone, d.Dead, d.Steps = false, false, 0
		return
	}
	if d.TaskDone {
		h.done = true
		h.task, h.snap = nil, nil
		if rj.doneCount++; rj.doneCount == len(rj.heads) {
			// Graceful shutdown of every stream: senders emit end-of-stream,
			// workers answer with their trailer, readers retire the conns.
			rj.assignsClosed = true
			for wc := range rj.conns {
				wc.closeAssigns()
			}
		}
	}
	if now := h.nextIdx / rj.window; h.done || now != round {
		// The skew gate's clock: the lowest round still occupied.
		rj.inRound[round]--
		if !h.done {
			rj.inRound[now]++
		}
		oldMin := rj.minRound
		for rj.minRound < len(rj.inRound)-1 && rj.inRound[rj.minRound] == 0 {
			rj.minRound++
		}
		if rj.minRound > oldMin && len(rj.gated) > 0 {
			rj.fifo = append(rj.gated, rj.fifo...)
			rj.gated = nil
		}
	}
	if rj.hook != nil && (h.nextIdx > start || h.done) {
		rj.hook(slabEvent{kind: "accept", traj: d.Traj, start: start, end: h.nextIdx, done: h.done})
	}
}

// localSlabEnd runs after Job.accept pushed a local slab's last delivery:
// the live task stays with its head (filter cleared it if the trajectory
// finished) and the head rejoins the FIFO.
func (rj *slabSched) localSlabEnd(traj int) {
	rj.mu.Lock()
	rj.local--
	if !rj.heads[traj].done {
		rj.fifo = append(rj.fifo, traj)
	}
	rj.grantUnlock()
}

// extend grants a local slab that reached its until at sample next the
// trajectory's next slab on the same pool worker — the grant the slab's
// end would lead to at once, without the trip through the collector and
// the dispatcher: the job has no worker connection, no head is waiting in
// the FIFO, the ingress is not congested and the skew gate admits it. It
// returns the new until, or 0 when the slab must end. The next slab's
// samples follow the last one's through the collector in order, as within
// a slab, so per-trajectory sample order into the windower holds.
func (rj *slabSched) extend(traj, next int) (until int) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	if rj.closed || !rj.stateless || len(rj.conns) > 0 || len(rj.fifo) > 0 ||
		next/rj.window > rj.minRound+1 || rj.job.congested() {
		return 0
	}
	until = min((next/rj.window+1)*rj.window, rj.samples)
	if rj.hook != nil {
		rj.hook(slabEvent{kind: "grant", traj: traj, start: next, end: until})
	}
	return until
}

// The local pool is one core.SimFarm shared by every job: each job's
// scheduler injects its granted local slabs, and the slices of all jobs
// interleave on its workers, so a newly started job receives service
// within one slice of the running ones. A slice is bounded by a fixed
// amount of work, so that cheap quanta share the fixed cost of a trip
// through the dispatcher and the collector while an expensive quantum
// still leaves after one: sliceSteps SSA steps (128 direct-method steps
// are about 8 µs) or sliceTime on the worker, whichever is spent first.
// The step count ends the slices of the built-in engines at the same
// quantum on every run; the clock bounds an engine whose steps are few and
// dear or not counted at all. Both sit below one neurospora quantum
// (≈ 290 steps, ≈ 25 µs): a longer budget would coalesce those too, and a
// newcomer's first window waits behind every slice queued ahead of it.
// The fair queue across tenants hands out dispatch slots, and a slot is
// one slice.
const (
	sliceSteps = 128
	sliceTime  = 10 * time.Microsecond
)

// Admit ends a local slab unrun when its job went terminal — reporting the
// trajectory complete, so the job's accounting and sample stream stay
// consistent — or when the job's ingress is congested. A congested slab
// leaves the farm at no worker time: its head waits in the FIFO, which
// grants nothing while the job is congested, until the windower drains
// below the low-water mark and kicks it. There is no point simulating
// faster than a job can analyse, and the pool's capacity flows to the
// tenants that can absorb results.
func (rj *slabSched) Admit(_ *core.SimSlab, sl *core.Slice) bool {
	job := rj.job
	job.metrics.schedWait.Observe(sl.Wait)
	if job.terminal() {
		sl.TaskDone = true
		return false
	}
	if job.congested() {
		job.noteDeferred()
		return false
	}
	return true
}

// AfterSlice checkpoints the task at the slice boundary when the job is
// durable (rate-limited per trajectory inside), counts the slice's quanta
// per quantum, as for a remote slab, and extends a slab that reached its
// until (see extend).
func (rj *slabSched) AfterSlice(s *core.SimSlab, sl *core.Slice) {
	job := rj.job
	if job.persist != nil {
		job.maybeCheckpoint(s.Task)
	}
	if n := sl.Quanta; n > 0 {
		if job.tenantQuanta != nil {
			job.tenantQuanta.Add(int64(n))
		}
		job.metrics.localQuantum.ObserveN(sl.Elapsed/time.Duration(n), n)
		job.metrics.quantaLocal.Add(uint64(n))
		job.obsTenantQuanta.Add(uint64(n))
	}
	if sl.SlabEnd && !sl.TaskDone {
		if until := rj.extend(s.Task.Traj, s.Task.NextIndex()); until > 0 {
			s.Until, sl.SlabEnd = until, false
		}
	}
}

// Deliver routes a local slice into the job, on the pool's collector.
func (rj *slabSched) Deliver(sl core.Slice) error {
	rj.job.accept(sl)
	return nil
}

// grantLocked hands idle trajectories their next slab while a site has
// room: a worker connection with a free registry slot (the per-worker
// in-flight cap, counted in slabs across all jobs) or the local pool up to
// localCap. The skew gate admits the first FIFO entry at most one round
// ahead of the slowest trajectory — the front, unless a straggler holds
// the round back — and moves the entries it turns away to gated; the
// slowest idle trajectory always qualifies, so the gate cannot wedge. A
// trajectory whose state is a live local task prefers the pool and one
// whose state is snapshot bytes a worker, so state is converted only when
// a trajectory changes site. Nothing is granted while
// the job's ingress is congested (the windower kicks us below the
// low-water mark). Slabs bound for the pool are returned for runLocal,
// which builds and submits them once rj.mu is released. Callers hold rj.mu.
func (rj *slabSched) grantLocked() (local []localSlab) {
	if rj.closed || rj.assignsClosed || rj.job.congested() {
		return nil
	}
	for i := 0; i < len(rj.fifo); {
		traj := rj.fifo[i]
		h := &rj.heads[traj]
		until := rj.samples
		if rj.stateless {
			if h.nextIdx/rj.window > rj.minRound+1 {
				rj.gated = append(rj.gated, traj)
				rj.takeLocked(i)
				continue
			}
			until = min((h.nextIdx/rj.window+1)*rj.window, rj.samples)
		}
		poolFree := rj.local < rj.localCap
		var wc *workerConn
		if h.task == nil || (!poolFree && rj.stateless) {
			wc = rj.acquireConnLocked()
		}
		switch {
		case wc != nil:
			if h.task != nil {
				snap, _, err := h.task.Snapshot()
				if err != nil {
					rj.srv.registry.release(wc.addr)
					i++ // cannot leave this site: it waits for a pool slot
					continue
				}
				h.snap, h.task = snap, nil
			}
			wc.assign <- core.WorkerMsg{Traj: traj, Snap: h.snap, Until: until}
			wc.inflight[traj] = time.Now().UnixNano()
		case poolFree:
			rj.local++
			local = append(local, localSlab{traj, until})
		default:
			return local
		}
		rj.takeLocked(i)
		if rj.hook != nil {
			rj.hook(slabEvent{kind: "grant", traj: traj, start: h.nextIdx, end: until, remote: wc != nil})
		}
	}
	return local
}

// takeLocked removes FIFO entry i — the front, in the common case, in O(1).
// Callers hold rj.mu.
func (rj *slabSched) takeLocked(i int) {
	if i == 0 {
		rj.fifo = rj.fifo[1:]
	} else {
		rj.fifo = append(rj.fifo[:i], rj.fifo[i+1:]...)
	}
}

// grantUnlock runs a grant pass and releases rj.mu, which the caller holds.
func (rj *slabSched) grantUnlock() {
	local := rj.grantLocked()
	rj.mu.Unlock()
	rj.runLocal(local)
}

// runLocal submits granted slabs to the shared local pool, first building
// the task of a trajectory whose state is a snapshot (or the seed). It
// runs outside rj.mu: a build failure fails the job, and fail →
// setTerminal → stop re-acquires the mutex. Touching the head unlocked is
// safe because a granted head belongs to its slab alone until
// localSlabEnd, which the pool orders after this submission.
func (rj *slabSched) runLocal(slabs []localSlab) {
	for _, ls := range slabs {
		if rj.job.ctx.Err() != nil {
			return // terminal: building the rest would be wasted
		}
		h := &rj.heads[ls.traj]
		if h.task == nil {
			task, err := rj.build(ls.traj, h.snap)
			if err != nil {
				rj.job.fail(fmt.Errorf("serve: building trajectory %d: %w", ls.traj, err))
				return
			}
			h.task, h.snap = task, nil
		}
		rj.srv.pool.Inject(core.SimSlab{Owner: rj, Task: h.task, Until: ls.until, Window: rj.window})
	}
}

// build makes trajectory traj's task, restored from snap when there is
// one. A snapshot that does not restore (a journal written by an
// incompatible build) is not fatal: the trajectory replays from its seed,
// and filter drops the replayed prefix below its frontier.
func (rj *slabSched) build(traj int, snap []byte) (*sim.Task, error) {
	task, err := core.BuildTask(rj.job.cfg, traj, snap, nil)
	if err == nil || snap == nil {
		return task, err
	}
	rj.job.trace.Event("restore-fallback", rj.job.origin, fmt.Sprintf("trajectory %d replays from its seed: %v", traj, err))
	return core.NewTrajectoryTask(rj.job.cfg, traj)
}

// kick re-runs granting and wakes readers blocked on congestion — the
// windower calls it to make the first grant, and whenever a congested
// ingress drains below the low-water mark.
func (rj *slabSched) kick() {
	rj.mu.Lock()
	rj.wake.Broadcast()
	rj.grantUnlock()
}

// stop ends the scheduler on a terminal job. On cancel or failure the
// connections close hard: in-flight work is abandoned (the workers' late
// results have nowhere to go) and nothing is requeued. On normal
// completion the streams already carry end-of-slabs, so the workers are
// left to answer with their trailer and a clean close — their logs stay
// free of torn-connection errors — with a reaper closing stragglers.
func (rj *slabSched) stop() {
	rj.mu.Lock()
	if rj.closed {
		rj.mu.Unlock()
		return
	}
	rj.closed = true
	rj.fifo, rj.gated = nil, nil
	graceful := rj.assignsClosed
	conns := make([]*workerConn, 0, len(rj.conns))
	for wc := range rj.conns {
		conns = append(conns, wc)
	}
	rj.wake.Broadcast()
	rj.mu.Unlock()
	closeAll := func() {
		for _, wc := range conns {
			wc.closeAssigns()
			wc.conn.Close()
		}
	}
	if !graceful {
		closeAll()
	} else if len(conns) > 0 {
		go func() {
			select {
			case <-rj.connsGone:
			case <-time.After(5 * time.Second):
				closeAll()
			}
		}()
	}
}
