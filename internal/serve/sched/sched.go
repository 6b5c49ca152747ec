// Package sched provides pluggable slice-dispatch queues for the serve
// pool. A Scheduler orders the pending slabs of every admitted job; the
// pool's dispatcher pushes each runnable slab once per slice and pops the
// next one to hand to an idle worker.
//
// Two disciplines are provided: FIFO (the historical behaviour — global
// arrival order) and WFQ (start-time fair queueing across tenant flows).
// Schedulers only reorder dispatch; sample identity is carried by
// (trajectory, index), so any dispatch order yields bit-identical window
// digests downstream. That standing invariant is what makes the discipline
// a pure policy choice.
//
// Schedulers are not safe for concurrent use: the farm dispatcher is the
// single goroutine that pushes and pops. Both implementations are
// allocation-free at steady state (allocations happen only when a flow's
// ring grows), which keeps the 0 allocs/op dispatch path intact.
package sched

// Scheduler is a pending-quantum queue. Push enqueues a runnable item, Pop
// dequeues the next item to dispatch (ok=false when empty), Len reports the
// number of queued items. A Scheduler of core.SimSlab is a core.TaskQueue,
// so it drives the simulation farm's dispatcher directly.
type Scheduler[T any] interface {
	Push(T)
	Pop() (T, bool)
	Len() int
}

// ring is a growable circular buffer. Steady-state push/pop never
// allocates; the backing slice doubles only when full.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero // release the reference for GC
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// FIFO dispatches in global arrival order — exactly the dispatch the pool
// performed before schedulers were pluggable.
type FIFO[T any] struct {
	q ring[T]
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO[T any]() *FIFO[T] { return &FIFO[T]{} }

// Push implements Scheduler.
func (f *FIFO[T]) Push(v T) { f.q.push(v) }

// Pop implements Scheduler.
func (f *FIFO[T]) Pop() (T, bool) { return f.q.pop() }

// Len implements Scheduler.
func (f *FIFO[T]) Len() int { return f.q.n }
