// Package platform is a discrete-event simulator (DES) of the CWC
// simulation-analysis pipeline running on modelled hardware: hosts with a
// given core count and speed, connected by links with latency and
// bandwidth.
//
// The paper evaluates on machines the reproduction does not assume (a
// 32-core Nehalem, an Infiniband cluster, Amazon EC2, a Tesla K40). As
// docs/ARCHITECTURE.md ("The evaluation substitute") sets out, the speedup
// figures are reproduced on this model: the per-stage service times are
// calibrated against the real single-core engines, and the qualitative
// effects the paper's curves show — load imbalance across uneven
// trajectories, the sequential alignment stage, the statistics farm
// bottleneck, network overhead per host, core contention between pipeline
// stages — all emerge from the simulation structure rather than being
// curve-fitted.
package platform

import (
	"container/heap"
	"fmt"
)

// event is one scheduled callback.
type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events (determinism)
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// engine is the DES core: a clock and an event queue.
type engine struct {
	now    float64
	seq    uint64
	events eventHeap
}

// after schedules fn at now+delay.
func (e *engine) after(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// run drains the event queue, advancing the clock. It returns the time of
// the last event.
func (e *engine) run() float64 {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// corePool models one host's cores as a multi-server FCFS resource. Work
// posted while all cores are busy queues up.
type corePool struct {
	eng   *engine
	name  string
	cores int
	free  int
	speed float64 // service-rate multiplier of each core (1.0 = reference)
	queue []pendingWork

	busyTime float64 // aggregate core-seconds of service
}

type pendingWork struct {
	dur    float64 // reference-core seconds
	onDone func()
}

func newCorePool(eng *engine, name string, cores int, speed float64) (*corePool, error) {
	if cores < 1 {
		return nil, fmt.Errorf("platform: host %s needs at least 1 core", name)
	}
	if speed <= 0 {
		return nil, fmt.Errorf("platform: host %s needs positive speed", name)
	}
	return &corePool{eng: eng, name: name, cores: cores, free: cores, speed: speed}, nil
}

// post requests dur reference-core seconds of service; onDone fires at
// completion.
func (p *corePool) post(dur float64, onDone func()) {
	w := pendingWork{dur: dur, onDone: onDone}
	if p.free > 0 {
		p.start(w)
		return
	}
	p.queue = append(p.queue, w)
}

func (p *corePool) start(w pendingWork) {
	p.free--
	service := w.dur / p.speed
	p.busyTime += service
	p.eng.after(service, func() {
		p.free++
		if len(p.queue) > 0 {
			next := p.queue[0]
			p.queue = p.queue[1:]
			p.start(next)
		}
		w.onDone()
	})
}

// thread serialises activities of one logical pipeline thread (a sim
// worker, the aligner, one stat engine) onto its host's core pool: a
// thread runs one activity at a time, competing with every other thread on
// the host for cores.
type thread struct {
	pool    *corePool
	busy    bool
	backlog []pendingWork
}

func newThread(pool *corePool) *thread { return &thread{pool: pool} }

// post enqueues an activity on the thread.
func (t *thread) post(dur float64, onDone func()) {
	w := pendingWork{dur: dur, onDone: onDone}
	if t.busy {
		t.backlog = append(t.backlog, w)
		return
	}
	t.run(w)
}

func (t *thread) run(w pendingWork) {
	t.busy = true
	t.pool.post(w.dur, func() {
		t.busy = false
		if len(t.backlog) > 0 {
			next := t.backlog[0]
			t.backlog = t.backlog[1:]
			t.run(next)
		}
		w.onDone()
	})
}
