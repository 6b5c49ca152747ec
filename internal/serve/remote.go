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

// workerConn is one live serve→worker stream: a sender goroutine forwards
// slabs, a reader goroutine merges their results into the job.
type workerConn struct {
	rj         *slabSched
	addr       string
	conn       net.Conn
	assign     chan core.WorkerMsg
	assignOnce sync.Once
	quanta     *obs.Counter // per-worker quanta series child, cached once
	// inflight maps each trajectory with a slab on this worker to the grant
	// (or previous message) stamp in unix ns — the round-trip clock. blocked
	// says the reader is waiting out a congested ingress, not a silent
	// worker. Both guarded by rj.mu.
	inflight map[int]int64
	blocked  bool
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

// dial connects a starting job to the registry's live workers (at most
// maxJobWorkerStreams of them), concurrently — submit latency is bounded by
// one dial window, not the cluster size — retrying once per worker so a
// worker mid-restart is caught on its way back up. It returns the
// connections that came up, none when the cluster is empty or unreachable.
func (rj *slabSched) dial() []*workerConn {
	s := rj.srv
	addrs := s.registry.live()
	if len(addrs) > maxJobWorkerStreams {
		addrs = addrs[:maxJobWorkerStreams]
	}
	conns := make([]net.Conn, len(addrs))
	var dials sync.WaitGroup
	for i, addr := range addrs {
		dials.Add(1)
		go func() {
			defer dials.Done()
			conn, err := dff.DialRetry(rj.job.ctx, addr, s.opts.DialTimeout, 2, 100*time.Millisecond)
			if err != nil {
				s.registry.markFailed(addr)
				return
			}
			conns[i] = conn
		}()
	}
	dials.Wait()
	var out []*workerConn
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
		out = append(out, wc)
	}
	return out
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
// congested it waits on rj.wake (the windower's low-water kick wakes it),
// TCP backpressure reaches the worker's collector, and the worker's farm
// stalls, as a local slab that finds the job congested ends without
// running. An error means the worker broke the protocol and its connection
// must go.
func (rj *slabSched) deliver(wc *workerConn, msg core.ResultMsg) error {
	next := msg.Start + len(msg.Samples)
	if len(msg.Snap) > 0 {
		// Journaled ahead of the congestion gate (stale offers are skipped
		// inside): the durable frontier keeps advancing with remote
		// progress even while this job's analysis is backpressured.
		rj.job.remoteCheckpoint(msg.Traj, next, msg.Snap)
	}
	rj.mu.Lock()
	stamp, held := wc.inflight[msg.Traj]
	h := &rj.heads[msg.Traj]
	if !held || (next <= h.nextIdx && !msg.TaskDone) {
		// A duplicate, a result of a slab that already completed, or a
		// from-the-seed replay still below the frontier. A completion is
		// kept: a recovered trajectory whose frontier is already its last
		// sample ends with a slab that adds none.
		rj.mu.Unlock()
		return nil
	}
	if msg.Start > h.nextIdx {
		rj.mu.Unlock()
		return fmt.Errorf("serve: worker %s skipped samples %d..%d of trajectory %d", wc.addr, h.nextIdx, msg.Start, msg.Traj)
	}
	for rj.job.congested() && !rj.closed {
		if rj.hook != nil && !wc.blocked {
			rj.hook(slabEvent{kind: "park", traj: msg.Traj, start: msg.Start, end: next})
		}
		wc.blocked = true
		rj.wake.Wait()
	}
	if wc.blocked {
		wc.blocked = false
		wc.touch() // alive, just backpressured: keep the watchdog quiet
	}
	rj.mu.Unlock()

	d := core.Slice{
		Traj:     msg.Traj,
		Start:    msg.Start,
		Elapsed:  time.Duration(msg.ElapsedNs),
		Quanta:   msg.Quanta,
		TaskDone: msg.TaskDone,
		Dead:     msg.Dead,
		Steps:    msg.Steps,
	}
	if len(msg.Samples) > 0 {
		d.Batch = sim.BatchOf(msg.Samples)
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
		rj.job.metrics.remoteQuantum.ObserveN(d.Elapsed/time.Duration(n), n)
		rj.job.metrics.quantaRemote.Add(uint64(n))
		wc.quanta.Add(uint64(n))
		rj.job.obsTenantQuanta.Add(uint64(n))
	}
	rj.job.accept(d)

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

// acquireConnLocked claims a registry slot on some connection (map order
// spreads the load), or returns nil when every worker is at its cap or its
// sender is backlogged. Callers hold rj.mu.
func (rj *slabSched) acquireConnLocked() *workerConn {
	for wc := range rj.conns {
		if len(wc.assign) < cap(wc.assign) && rj.srv.registry.tryAcquire(wc.addr) {
			return wc
		}
	}
	return nil
}

// connDown retires one worker connection: clean EOF after the trailer on
// the graceful path, or a failure — then every slab still in flight on it
// requeues at the front of the FIFO (its trajectories are the furthest
// behind) and the worker enters its registry cooldown. The conn leaves
// rj.conns under the mutex BEFORE its assign channel closes: grantLocked
// only sends to members of rj.conns while holding rj.mu, so a send on the
// closed channel is impossible.
func (rj *slabSched) connDown(wc *workerConn, err error) {
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

// watchdog kills connections whose worker holds slabs but has produced no
// stream activity for the timeout — the reader then unblocks with an error
// and the in-flight slabs requeue. It also re-runs granting each tick as a
// safety net against missed capacity wakeups (a registry slot freed by
// another job raises no event here).
func (rj *slabSched) watchdog() {
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
			if len(wc.inflight) > 0 && !wc.blocked && now-wc.lastMsg.Load() > int64(rj.timeout) {
				stale = append(stale, wc)
			}
		}
		rj.grantUnlock()
		for _, wc := range stale {
			wc.conn.Close()
		}
	}
}
