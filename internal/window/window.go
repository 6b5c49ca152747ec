// Package window implements the two stream-reshaping stages between the
// simulation farm and the statistical farm of the pipeline:
//
//   - the Aligner ("alignment of trajectories"): it consumes the unordered
//     interleaving of per-trajectory samples produced by the simulation
//     engines and emits Cuts — the states of *all* trajectories at a common
//     sample instant — in increasing time order, buffering only the spread
//     between the fastest and slowest trajectory;
//   - the Slider ("generation of sliding windows of trajectories"): it
//     groups consecutive cuts into overlapping windows, the unit of work of
//     the statistical engines that need temporal context (moving averages,
//     period detection, clustering of trajectory segments).
//
// The Aligner buffers its partial cuts in a ring indexed by sample index
// (the fastest-minus-slowest spread is small, so the ring stays small and
// grows only on demand), copies each sample's state into a flat per-cut
// arena (decoupling cut lifetime from the producer's recycled sample
// batches), and keeps a free list of cut storage: a pipeline that retires
// cuts back to the aligner (window.Stream does, once a window slides past)
// aligns an entire run without per-sample or per-cut allocations in steady
// state.
package window

import (
	"errors"
	"fmt"

	"cwcflow/internal/sim"
)

// Cut is the cross-section of the whole trajectory ensemble at one sample
// instant: States[i] is trajectory i's observable vector.
type Cut struct {
	Index  int
	Time   float64
	States [][]int64

	// store, when non-nil, is the recyclable backing of States — returned
	// to the owning Aligner's free list by Recycle.
	store *cutStore
}

// NumTrajectories returns the ensemble size.
func (c Cut) NumTrajectories() int { return len(c.States) }

// cutStore is the reusable backing of one cut: the States header slice and
// the flat arena its rows point into (row i is arena[i*ns:(i+1)*ns]).
type cutStore struct {
	states [][]int64
	arena  []int64
}

// slot is one ring entry: a cut being assembled.
type slot struct {
	time   float64
	filled int
	store  *cutStore
}

// Aligner assembles samples into cuts. Samples may arrive in any
// interleaving across trajectories, but each trajectory must deliver its
// own samples in index order (which the sim.Task contract guarantees).
//
// The zero value is not usable; construct with NewAlignerAt.
type Aligner struct {
	nTraj    int
	ns       int // state width, learned from the first sample
	nextEmit int
	pending  int    // slots currently holding ≥1 sample
	ring     []slot // len is a power of two; slot for index i is ring[i&mask]
	free     []*cutStore
}

// NewAlignerAt returns an aligner for an ensemble of nTraj trajectories
// whose first emitted cut is start: 0, or the resume point of a recovered
// job that re-enters the stream mid-run. Cuts below start were already
// consumed into durably published windows, so the aligner begins
// assembling at the resume point (samples below it must be filtered out by
// the caller; pushing one is the usual duplicate error). EmittedCuts
// counts absolutely, start included.
func NewAlignerAt(nTraj, start int) (*Aligner, error) {
	if nTraj < 1 {
		return nil, fmt.Errorf("window: need at least 1 trajectory, got %d", nTraj)
	}
	if start < 0 {
		return nil, fmt.Errorf("window: negative start cut %d", start)
	}
	return &Aligner{
		nTraj:    nTraj,
		ns:       -1,
		nextEmit: start,
		ring:     make([]slot, 8),
	}, nil
}

// Push adds one sample. Complete cuts are emitted in index order (one Push
// can release several consecutive cuts when it fills the oldest gap).
func (a *Aligner) Push(s sim.Sample, emit func(Cut) error) error {
	if s.Traj < 0 || s.Traj >= a.nTraj {
		return fmt.Errorf("window: sample for unknown trajectory %d (ensemble of %d)", s.Traj, a.nTraj)
	}
	if s.Index < a.nextEmit {
		return fmt.Errorf("window: trajectory %d delivered sample %d twice (cut already emitted)", s.Traj, s.Index)
	}
	if a.ns < 0 {
		a.ns = len(s.State)
	} else if len(s.State) != a.ns {
		return fmt.Errorf("window: sample state has %d species, want %d", len(s.State), a.ns)
	}
	if s.Index-a.nextEmit >= len(a.ring) {
		a.growRing(s.Index - a.nextEmit + 1)
	}
	sl := &a.ring[s.Index&(len(a.ring)-1)]
	if sl.store == nil {
		sl.store = a.getStore()
		sl.time = s.Time
		sl.filled = 0
		a.pending++
	}
	st := sl.store
	if st.states[s.Traj] != nil {
		return fmt.Errorf("window: duplicate sample (traj %d, index %d)", s.Traj, s.Index)
	}
	row := st.arena[s.Traj*a.ns : (s.Traj+1)*a.ns : (s.Traj+1)*a.ns]
	copy(row, s.State)
	st.states[s.Traj] = row
	sl.filled++

	// Release every consecutive complete cut starting at nextEmit.
	for {
		ready := &a.ring[a.nextEmit&(len(a.ring)-1)]
		if ready.store == nil || ready.filled < a.nTraj {
			return nil
		}
		cut := Cut{Index: a.nextEmit, Time: ready.time, States: ready.store.states, store: ready.store}
		ready.store = nil
		ready.filled = 0
		a.pending--
		a.nextEmit++
		if err := emit(cut); err != nil {
			return err
		}
	}
}

// growRing enlarges the ring to hold at least need pending cuts,
// re-placing live slots by their absolute index (a dead trajectory can
// flood the aligner with its whole frozen tail in one quantum, so the
// spread is usually — not always — small).
func (a *Aligner) growRing(need int) {
	newLen := len(a.ring)
	for newLen < need {
		newLen *= 2
	}
	nring := make([]slot, newLen)
	for i := a.nextEmit; i < a.nextEmit+len(a.ring); i++ {
		old := a.ring[i&(len(a.ring)-1)]
		if old.store != nil {
			nring[i&(newLen-1)] = old
		}
	}
	a.ring = nring
}

// getStore returns cut storage from the free list, or allocates it.
func (a *Aligner) getStore() *cutStore {
	if n := len(a.free); n > 0 {
		st := a.free[n-1]
		a.free = a.free[:n-1]
		return st
	}
	return &cutStore{
		states: make([][]int64, a.nTraj),
		arena:  make([]int64, a.nTraj*a.ns),
	}
}

// Recycle returns a cut's storage to the aligner's free list, to back a
// future cut. Call it only once per cut, and only after the last consumer
// of the cut's States is done — the synchronous Stream pipeline does this
// automatically once a window slides past. Recycling cuts from a different
// Aligner (or cuts assembled by hand) is a safe no-op.
func (a *Aligner) Recycle(c Cut) {
	st := c.store
	if st == nil || len(st.states) != a.nTraj || len(st.arena) != a.nTraj*a.ns {
		return
	}
	for i := range st.states {
		st.states[i] = nil
	}
	a.free = append(a.free, st)
}

// Pending returns the number of partially assembled cuts currently
// buffered — the alignment backlog (fastest minus slowest trajectory).
func (a *Aligner) Pending() int { return a.pending }

// EmittedCuts returns how many complete cuts have been released.
func (a *Aligner) EmittedCuts() int { return a.nextEmit }

// Close verifies that no partially filled cut is left behind (every
// trajectory delivered every sample). Call it after the sample stream ends.
func (a *Aligner) Close() error {
	if a.pending != 0 {
		return fmt.Errorf("window: stream ended with %d incomplete cuts (first missing: %d)", a.pending, a.nextEmit)
	}
	return nil
}

// Window is a group of Size consecutive cuts starting at cut index Start.
type Window struct {
	Start int
	Cuts  []Cut
}

// Slider groups a stream of cuts into sliding windows of the given size,
// advancing by step cuts between windows (step == size gives tumbling
// windows).
//
// The zero value is not usable; construct with NewSliderAt.
type Slider struct {
	size, step int
	buf        []Cut
	start      int
	retire     func(Cut)
}

// NewSliderAt returns a slider emitting windows of size cuts every step
// cuts, whose first window starts at cut index start: 0, or the resume
// point of a recovered job, where windows below start/step
// were already published durably, so the slider picks up exactly where
// the crashed slider's window sequence left off. start must be a window
// boundary (a multiple of step), and the first cut pushed must be start.
func NewSliderAt(size, step, start int) (*Slider, error) {
	if size < 1 || step < 1 {
		return nil, fmt.Errorf("window: size and step must be >= 1 (got %d, %d)", size, step)
	}
	if step > size {
		return nil, fmt.Errorf("window: step %d larger than size %d would drop cuts", step, size)
	}
	if start < 0 || start%step != 0 {
		return nil, fmt.Errorf("window: start cut %d is not a multiple of step %d", start, step)
	}
	return &Slider{size: size, step: step, start: start}, nil
}

// SetRetire registers a callback invoked for every cut that permanently
// leaves the slider — after the emit of the last window containing it has
// returned, so a synchronous consumer (one that finishes analysing each
// window inside emit, or copies it first, as core.Analysis does) can
// recycle the cut's storage. Do not set it when windows are analysed
// asynchronously after emit returns.
func (s *Slider) SetRetire(retire func(Cut)) { s.retire = retire }

// Push adds a cut, emitting a window whenever one completes. Cuts must
// arrive in index order (the Aligner guarantees that).
func (s *Slider) Push(c Cut, emit func(Window) error) error {
	if n := len(s.buf); n > 0 && c.Index != s.buf[n-1].Index+1 {
		return fmt.Errorf("window: cut %d out of order after %d", c.Index, s.buf[n-1].Index)
	}
	s.buf = append(s.buf, c)
	if len(s.buf) < s.size {
		return nil
	}
	w := Window{Start: s.start, Cuts: append([]Cut(nil), s.buf...)}
	err := emit(w)
	// Slide: drop (and retire) the first step cuts. Retiring happens even
	// when emit failed — the stream is over either way.
	if s.retire != nil {
		for _, c := range s.buf[:s.step] {
			s.retire(c)
		}
	}
	s.buf = append(s.buf[:0], s.buf[s.step:]...)
	s.start += s.step
	return err
}

// Flush emits the trailing partial window (fewer than size cuts), if any
// cuts would otherwise be lost. Windows already emitted cover cuts up to
// start+size-1; Flush emits the remainder once the stream ends.
func (s *Slider) Flush(emit func(Window) error) error {
	if len(s.buf) == 0 {
		return nil
	}
	// The buffered cuts overlap previously emitted windows except for the
	// very tail. Emit a final window only if some cut was never part of an
	// emitted window.
	var err error
	if s.start == 0 || len(s.buf) > s.size-s.step {
		w := Window{Start: s.start, Cuts: append([]Cut(nil), s.buf...)}
		err = emit(w)
	}
	if s.retire != nil {
		for _, c := range s.buf {
			s.retire(c)
		}
	}
	s.buf = s.buf[:0]
	return err
}

// ErrNoCuts is returned by helpers that require a non-empty window.
var ErrNoCuts = errors.New("window: empty window")

// CopyBuffer is a reusable deep copy of one window: Capture copies every
// cut's states into a single flat arena owned by the buffer, so the copy's
// lifetime is independent of the producer's recycled cut storage. A
// consumer that must hold a window past the emit callback (e.g. a farm
// that analyses windows asynchronously while the stream recycles cuts)
// captures into a pooled CopyBuffer and releases it afterwards; a warmed
// buffer captures without allocating.
type CopyBuffer struct {
	cuts   []Cut
	states [][]int64
	arena  []int64
}

// Capture deep-copies w into the buffer and returns the copy, valid until
// the next Capture on the same buffer. Every cut of w must hold the same
// number of trajectories with the same state width (the Aligner
// guarantees both).
func (b *CopyBuffer) Capture(w Window) Window {
	nCuts := len(w.Cuts)
	if nCuts == 0 {
		return Window{Start: w.Start}
	}
	nTraj := w.Cuts[0].NumTrajectories()
	ns := 0
	if nTraj > 0 {
		ns = len(w.Cuts[0].States[0])
	}
	if need := nCuts * nTraj * ns; cap(b.arena) < need {
		b.arena = make([]int64, need)
	} else {
		b.arena = b.arena[:need]
	}
	if need := nCuts * nTraj; cap(b.states) < need {
		b.states = make([][]int64, need)
	} else {
		b.states = b.states[:need]
	}
	if cap(b.cuts) < nCuts {
		b.cuts = make([]Cut, nCuts)
	} else {
		b.cuts = b.cuts[:nCuts]
	}
	for k, c := range w.Cuts {
		for i, st := range c.States {
			off := (k*nTraj + i) * ns
			row := b.arena[off : off+ns : off+ns]
			copy(row, st)
			b.states[k*nTraj+i] = row
		}
		b.cuts[k] = Cut{
			Index:  c.Index,
			Time:   c.Time,
			States: b.states[k*nTraj : (k+1)*nTraj],
		}
	}
	return Window{Start: w.Start, Cuts: b.cuts}
}
