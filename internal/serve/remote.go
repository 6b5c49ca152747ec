package serve

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cwcflow/internal/chaos"
	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/obs"
	"cwcflow/internal/sim"
)

// remoteJob is one job's slab scheduler across the cluster. The unit of
// work is a slab — (trajectory, engine snapshot or nil = build from the
// seed, until-sample-index) — a pure function returning that stretch's
// samples plus the engine snapshot at its end, so no site holds trajectory
// state between slabs and any slab can run on any site: a remote sim
// worker (cwc-dist worker) over a dff stream, or the local simulation pool.
//
// The job keeps one FIFO of idle trajectory heads. Pool slots and worker
// connections both pull from its front and a trajectory returns to its
// back when its slab's result is in: round-robin over trajectories, i.e.
// breadth-first in simulated time, the order the paper's feedback farm
// gives a single process. Slabs are one window of cuts long and
// window-aligned, so round r of the queue is window r, and the skew gate
// lets a trajectory lead the slowest by at most one round: the aligner
// buffers at most two windows per trajectory, and window r streams out
// while round r+1 is simulated.
//
// Determinism rests on two invariants: (1) a snapshot restores species,
// clock, step counter and RNG, and sim.Task never truncates an SSA step at
// a boundary, so a trajectory is bit-identical however it is cut into
// slabs and wherever they run; (2) filter admits a delivery iff it extends
// the trajectory's frontier, so the aligner sees every (trajectory, index)
// sample exactly once and the window digest matches a single-process run.
//
// A lost worker costs its in-flight slabs, which requeue at the front of
// the FIFO from the snapshots their heads still hold. Engines that cannot
// snapshot (the CWC term rewriter) get one run-to-the-end slab per
// trajectory, replayed from the seed when its worker is lost. Results
// merge into the job's ordinary ingress ring via Job.accept, so everything
// downstream is oblivious to where a slab was simulated.
type remoteJob struct {
	srv     *Server
	job     *Job
	cfg     core.Config
	timeout time.Duration // per-connection result watchdog
	window  int           // slab length in samples
	samples int           // samples per trajectory
	// stateless: the model's engine snapshots, so slabs migrate between
	// sites; otherwise every slab runs to its trajectory's end.
	stateless bool
	hook      func(slabEvent) // Options.slabHook test seam, may be nil

	mu        sync.Mutex
	wake      *sync.Cond // readers parked on a congested ingress (L = &mu)
	heads     []head     // per trajectory
	fifo      []int      // idle trajectories, next slab first
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
// the last remote slab returned, or — both nil — the seed. A head granted
// to a worker keeps its snapshot: losing the worker loses only the slab.
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

// workerConn is one live serve→worker stream: a sender goroutine forwards
// slabs, a reader goroutine merges their results into the job.
type workerConn struct {
	rj         *remoteJob
	addr       string
	conn       net.Conn
	assign     chan core.WorkerMsg
	assignOnce sync.Once
	quanta     *obs.Counter // per-worker quanta series child, cached once
	// inflight maps each trajectory with a slab on this worker to the grant
	// (or previous message) stamp in unix ns — the round-trip clock. parked
	// says the reader is waiting out a congested ingress, not a silent
	// worker. Both guarded by rj.mu.
	inflight map[int]int64
	parked   bool
	lastMsg  atomic.Int64 // unixnano of the last stream activity
}

func (wc *workerConn) closeAssigns() { wc.assignOnce.Do(func() { close(wc.assign) }) }

func (wc *workerConn) touch() { wc.lastMsg.Store(time.Now().UnixNano()) }

// maxJobWorkerStreams caps how many worker connections one job opens.
// It bounds both the submit-time dial fan-out and — critically — the
// number of reader goroutines that can concurrently push a batch past the
// congestion check into the job's ingress ring: the ring's hard capacity
// reserves exactly this much slack above the high-water mark (see
// newJob), so remote delivery can never spill a healthy job.
const maxJobWorkerStreams = 32

// startRemote shards a job across the registry's live workers, returning
// false (job untouched) when none are reachable — the caller then falls
// back to the all-local pool path. On success the scheduler owns the
// submission of every slab.
func (s *Server) startRemote(job *Job, cfg core.Config, model core.ModelRef) bool {
	if s.registry == nil {
		return false
	}
	addrs := s.registry.live()
	if len(addrs) == 0 {
		return false
	}
	if len(addrs) > maxJobWorkerStreams {
		addrs = addrs[:maxJobWorkerStreams]
	}
	// Trajectory 0's task doubles as the probe for whether the engine
	// snapshots.
	probe, err := core.NewTrajectoryTask(cfg, 0)
	if err != nil {
		return false // the local path reports the error
	}
	rj := &remoteJob{
		srv:       s,
		job:       job,
		cfg:       cfg,
		timeout:   s.opts.WorkerTimeout,
		window:    cfg.WindowSize,
		samples:   probe.NumSamples(),
		stateless: probe.Snapshots(),
		hook:      s.opts.slabHook,
		heads:     make([]head, cfg.Trajectories),
		fifo:      make([]int, cfg.Trajectories),
		conns:     make(map[*workerConn]struct{}),
		connsGone: make(chan struct{}),
		localCap:  s.pool.Workers(),
		inRound:   make([]int, probe.NumSamples()/cfg.WindowSize+1),
	}
	rj.wake = sync.NewCond(&rj.mu)
	rj.heads[0].task = probe
	rj.inRound[0] = cfg.Trajectories
	for i := range rj.fifo {
		rj.fifo[i] = i
	}
	// Dial every live worker concurrently (submit latency is bounded by
	// one dial window, not the cluster size), retrying once per worker so
	// a worker mid-restart is caught on its way back up.
	conns := make([]net.Conn, len(addrs))
	var dials sync.WaitGroup
	for i, addr := range addrs {
		dials.Add(1)
		go func() {
			defer dials.Done()
			conn, err := dff.DialRetry(job.ctx, addr, s.opts.DialTimeout, 2, 100*time.Millisecond)
			if err != nil {
				s.registry.markFailed(addr)
				return
			}
			conns[i] = conn
		}()
	}
	dials.Wait()
	for i, conn := range conns {
		if conn == nil {
			continue
		}
		s.registry.markHealthy(addrs[i])
		wc := &workerConn{
			rj:   rj,
			addr: addrs[i],
			conn: conn,
			// Far above any sane per-worker cap (an in-flight slab has at
			// most one message queued here); grants skip a worker whose
			// sender is backlogged anyway.
			assign:   make(chan core.WorkerMsg, 1024),
			quanta:   s.m.workerQuanta.With(addrs[i]),
			inflight: make(map[int]int64),
		}
		wc.touch()
		rj.conns[wc] = struct{}{}
	}
	if len(rj.conns) == 0 {
		return false
	}
	job.setSched(rj)
	hdr := core.JobHeader{
		Model: model, End: cfg.End, Quantum: cfg.Quantum, Period: cfg.Period,
		BaseSeed: cfg.BaseSeed, Slab: cfg.WindowSize, TraceID: job.trace.ID(),
	}
	for wc := range rj.conns {
		go wc.sender(hdr)
		go wc.reader()
	}
	go rj.watchdog()
	rj.kick()
	return true
}

// sender pushes the job header and then every granted slab onto the
// stream. A transport failure closes the connection; the reader notices
// and the scheduler requeues whatever was in flight.
func (wc *workerConn) sender(hdr core.JobHeader) {
	out := dff.NewWriter[core.WorkerMsg](wc.conn)
	if err := out.Send(core.WorkerMsg{Header: &hdr}); err != nil {
		wc.conn.Close()
		return
	}
	for msg := range wc.assign {
		if err := out.Send(msg); err != nil {
			wc.conn.Close()
			return
		}
	}
	// End of slabs: the worker finishes what it holds, sends the trailer
	// and closes its side.
	_ = out.Close()
}

// reader merges the worker's result stream into the job until the stream
// ends (cleanly after a trailer, or with an error on worker death).
func (wc *workerConn) reader() {
	in := dff.NewReader[core.ResultMsg](wc.conn)
	faults := wc.rj.srv.opts.Chaos // nil in production: each hook is one nil check
	for {
		msg, ok, err := in.Recv()
		if err != nil || !ok {
			wc.rj.connDown(wc, err)
			return
		}
		wc.touch()
		if msg.Trailer != nil {
			// Serve-side accounting rides the per-slab markers; the trailer
			// closes the stream — and brings home the worker's spans, which
			// merge into the owning job's trace under the local trace id.
			wc.rj.job.trace.Merge(msg.Trailer.Spans)
			continue
		}
		// Fault injection: drop the link, delay the delivery, or deliver
		// the message twice — the requeue/dedup machinery must absorb all
		// three without perturbing the window digest.
		if faults.Fire(chaos.RecvDrop) {
			wc.rj.connDown(wc, errors.New("serve: chaos dropped worker connection"))
			return
		}
		if d := faults.Stall(chaos.RecvDelay); d > 0 {
			time.Sleep(d)
		}
		err = wc.rj.deliver(wc, msg)
		if err == nil && faults.Fire(chaos.RecvDup) {
			err = wc.rj.deliver(wc, msg)
		}
		if err != nil {
			wc.rj.connDown(wc, err)
			return
		}
	}
}

// deliver merges one remote result message through the job's ordinary
// ingress path and, when it ends its slab, returns the trajectory to the
// FIFO. Flow control is the reader itself: while the job's ingress is
// congested it parks on rj.wake (the windower's low-water kick wakes it),
// TCP backpressure reaches the worker's collector, and the worker's farm
// stalls — the distributed analogue of parking local tasks. An error means
// the worker broke the protocol and its connection must go.
func (rj *remoteJob) deliver(wc *workerConn, msg core.ResultMsg) error {
	next := msg.Start + len(msg.Samples)
	if len(msg.Snap) > 0 {
		// Journaled ahead of the congestion gate (stale offers are skipped
		// inside): the durable frontier keeps advancing with remote
		// progress even while this job's analysis is backpressured.
		rj.job.remoteCheckpoint(msg.Traj, next, msg.Snap)
	}
	rj.mu.Lock()
	stamp, held := wc.inflight[msg.Traj]
	if !held || next <= rj.heads[msg.Traj].nextIdx {
		// A duplicate, a result of a slab that already completed, or a
		// from-the-seed replay still below the frontier.
		rj.mu.Unlock()
		return nil
	}
	h := &rj.heads[msg.Traj]
	if msg.Start > h.nextIdx {
		rj.mu.Unlock()
		return fmt.Errorf("serve: worker %s skipped samples %d..%d of trajectory %d", wc.addr, h.nextIdx, msg.Start, msg.Traj)
	}
	for rj.job.congested() && !rj.closed {
		if rj.hook != nil && !wc.parked {
			rj.hook(slabEvent{kind: "park", traj: msg.Traj, start: msg.Start, end: next})
		}
		wc.parked = true
		rj.wake.Wait()
	}
	if wc.parked {
		wc.parked = false
		wc.touch() // alive, just backpressured: keep the watchdog quiet
	}
	rj.mu.Unlock()

	d := delivery{
		job:      rj.job,
		traj:     msg.Traj,
		elapsed:  time.Duration(msg.ElapsedNs),
		quanta:   msg.Quanta,
		taskDone: msg.TaskDone,
		dead:     msg.Dead,
		steps:    msg.Steps,
	}
	if len(msg.Samples) > 0 {
		d.batch = sim.BatchOf(msg.Samples)
	}
	// Remote quanta count toward the owning tenant's dispatched-quanta
	// observable just like local ones (GET /tenants); only the local
	// pool's share is shaped by the sched.Scheduler. The worker reports a
	// slab's quanta as a count and a busy time: the per-quantum histogram
	// gets their mean, once per quantum.
	if n := msg.Quanta; n > 0 {
		if rj.job.tenantQuanta != nil {
			rj.job.tenantQuanta.Add(int64(n))
		}
		rj.job.metrics.remoteQuantum.ObserveN(d.elapsed/time.Duration(n), n)
		rj.job.metrics.quantaRemote.Add(uint64(n))
		wc.quanta.Add(uint64(n))
		rj.job.obsTenantQuanta.Add(uint64(n))
	}
	_ = rj.job.accept(rj.job.ctx, d)

	// Round trip: grant (or the slab's previous message) to this delivery —
	// worker queueing and compute plus both wire legs.
	now := time.Now().UnixNano()
	rj.job.metrics.remoteRTT.Observe(time.Duration(now - stamp))
	rj.mu.Lock()
	if !msg.TaskDone && len(msg.Snap) == 0 {
		wc.inflight[msg.Traj] = now // more of this slab to come
		rj.mu.Unlock()
		return nil
	}
	delete(wc.inflight, msg.Traj)
	rj.srv.registry.release(wc.addr)
	if msg.TaskDone {
		rj.job.remoteDone.Add(1)
	} else {
		h.snap, h.task = msg.Snap, nil
		rj.fifo = append(rj.fifo, msg.Traj)
	}
	rj.grantUnlock()
	return nil
}

// filter runs inside Job.accept for every delivery (local and remote) of
// a scheduled job: it admits the samples that extend the trajectory's
// frontier — a batch is contiguous, so a replayed prefix is one slice
// expression, not a scan — and squashes duplicate completion markers, so
// the windower sees each sample and each completion exactly once however
// many times a slab was (re)started.
func (rj *remoteJob) filter(d *delivery) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	h := &rj.heads[d.traj]
	round, start := h.nextIdx/rj.window, h.nextIdx
	if b := d.batch; b != nil {
		if skip := start - b.Samples[0].Index; h.done || skip < 0 || skip >= len(b.Samples) {
			b.Release()
			d.batch = nil
		} else {
			b.Samples = b.Samples[:copy(b.Samples, b.Samples[skip:])]
			h.nextIdx += len(b.Samples)
		}
	}
	if h.done {
		d.taskDone, d.dead, d.steps = false, false, 0
		return
	}
	if d.taskDone {
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
		for rj.minRound < len(rj.inRound)-1 && rj.inRound[rj.minRound] == 0 {
			rj.minRound++
		}
	}
	if rj.hook != nil && (h.nextIdx > start || h.done) {
		rj.hook(slabEvent{kind: "accept", traj: d.traj, start: start, end: h.nextIdx, done: h.done})
	}
}

// localSlabEnd runs after Job.accept pushed a local slab's last delivery:
// the live task stays with its head (filter cleared it if the trajectory
// finished) and the head rejoins the FIFO.
func (rj *remoteJob) localSlabEnd(traj int) {
	rj.mu.Lock()
	rj.local--
	if !rj.heads[traj].done {
		rj.fifo = append(rj.fifo, traj)
	}
	rj.grantUnlock()
}

// grantLocked hands idle trajectories their next slab while a site has
// room: a worker connection with a free registry slot (the per-worker
// in-flight cap, counted in slabs across all jobs) or the local pool up to
// localCap. The skew gate admits the first FIFO entry at most one round
// ahead of the slowest trajectory — the front, unless a straggler holds
// the round back; the slowest idle trajectory always qualifies, so the
// gate cannot wedge. A trajectory whose state is a live local task prefers
// the pool and one whose state is snapshot bytes a worker, so state is
// converted only when a trajectory changes site. Nothing is granted while
// the job's ingress is congested (the windower kicks us below the
// low-water mark). Slabs bound for the pool are returned for runLocal,
// which builds and submits them once rj.mu is released. Callers hold rj.mu.
func (rj *remoteJob) grantLocked() (local []localSlab) {
	if rj.closed || rj.assignsClosed || rj.job.congested() {
		return nil
	}
	for i := 0; i < len(rj.fifo); {
		traj := rj.fifo[i]
		h := &rj.heads[traj]
		until := rj.samples
		if rj.stateless {
			if h.nextIdx/rj.window > rj.minRound+1 {
				i++
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
		if i == 0 {
			rj.fifo = rj.fifo[1:] // the common case, O(1)
		} else {
			rj.fifo = append(rj.fifo[:i], rj.fifo[i+1:]...)
		}
		if rj.hook != nil {
			rj.hook(slabEvent{kind: "grant", traj: traj, start: h.nextIdx, end: until, remote: wc != nil})
		}
	}
	return local
}

// grantUnlock runs a grant pass and releases rj.mu, which the caller holds.
func (rj *remoteJob) grantUnlock() {
	local := rj.grantLocked()
	rj.mu.Unlock()
	rj.runLocal(local)
}

// acquireConnLocked claims a registry slot on some connection (map order
// spreads the load), or returns nil when every worker is at its cap or its
// sender is backlogged. Callers hold rj.mu.
func (rj *remoteJob) acquireConnLocked() *workerConn {
	for wc := range rj.conns {
		if len(wc.assign) < cap(wc.assign) && rj.srv.registry.tryAcquire(wc.addr) {
			return wc
		}
	}
	return nil
}

// runLocal submits granted slabs to the shared local pool, first building
// the task of a trajectory whose state is a snapshot (or the seed). It
// runs outside rj.mu: a build failure fails the job, and fail →
// setTerminal → stop re-acquires the mutex. Touching the head unlocked is
// safe because a granted head belongs to its slab alone until
// localSlabEnd, which the pool orders after this submission.
func (rj *remoteJob) runLocal(slabs []localSlab) {
	for _, ls := range slabs {
		h := &rj.heads[ls.traj]
		if h.task == nil {
			task, err := core.NewTrajectoryTask(rj.cfg, ls.traj)
			if err == nil && h.snap != nil {
				err = task.Restore(h.snap)
			}
			if err != nil {
				rj.job.fail(fmt.Errorf("serve: resuming trajectory %d locally: %w", ls.traj, err))
				return
			}
			h.task, h.snap = task, nil
		}
		rj.srv.pool.inject(poolTask{job: rj.job, task: h.task, until: ls.until})
	}
}

// connDown retires one worker connection: clean EOF after the trailer on
// the graceful path, or a failure — then every slab still in flight on it
// requeues at the front of the FIFO (its trajectories are the furthest
// behind) and the worker enters its registry cooldown. The conn leaves
// rj.conns under the mutex BEFORE its assign channel closes: grantLocked
// only sends to members of rj.conns while holding rj.mu, so a send on the
// closed channel is impossible.
func (rj *remoteJob) connDown(wc *workerConn, err error) {
	wc.conn.Close()
	defer wc.closeAssigns()
	rj.mu.Lock()
	if _, ok := rj.conns[wc]; !ok {
		rj.mu.Unlock()
		return // already retired elsewhere
	}
	delete(rj.conns, wc)
	if len(rj.conns) == 0 {
		close(rj.connsGone)
	}
	requeue := make([]int, 0, len(wc.inflight))
	for traj := range wc.inflight {
		requeue = append(requeue, traj)
		rj.srv.registry.release(wc.addr)
	}
	wc.inflight = nil
	if err != nil || len(requeue) > 0 {
		rj.srv.registry.markFailed(wc.addr)
	}
	if !rj.closed {
		if len(requeue) > 0 {
			sort.Ints(requeue)
			rj.fifo = append(requeue, rj.fifo...)
			rj.job.requeued.Add(int64(len(requeue)))
			rj.job.metrics.requeued.Add(uint64(len(requeue)))
			rj.job.trace.Event("requeue", rj.job.origin, "worker "+wc.addr+" lost")
		}
		if len(rj.conns) == 0 {
			// All-local from here on — a job never stalls because the
			// cluster shrank: the pool's own dispatcher, not this
			// scheduler's cap, now paces the trajectories.
			rj.localCap = len(rj.heads)
		}
	}
	rj.grantUnlock()
}

// kick re-runs granting and wakes readers parked on congestion — the
// windower calls it when the ingress drains below the low-water mark.
func (rj *remoteJob) kick() {
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
func (rj *remoteJob) stop() {
	rj.mu.Lock()
	if rj.closed {
		rj.mu.Unlock()
		return
	}
	rj.closed = true
	rj.fifo = nil
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

// watchdog kills connections whose worker holds slabs but has produced no
// stream activity for the timeout — the reader then unblocks with an error
// and the in-flight slabs requeue. It also re-runs granting each tick as a
// safety net against missed capacity wakeups (a registry slot freed by
// another job raises no event here).
func (rj *remoteJob) watchdog() {
	t := time.NewTicker(max(rj.timeout/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-rj.job.ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		rj.mu.Lock()
		var stale []*workerConn
		for wc := range rj.conns {
			if len(wc.inflight) > 0 && !wc.parked && now-wc.lastMsg.Load() > int64(rj.timeout) {
				stale = append(stale, wc)
			}
		}
		rj.grantUnlock()
		for _, wc := range stale {
			wc.conn.Close()
		}
	}
}
