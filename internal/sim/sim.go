// Package sim turns a stochastic simulation engine into quantum-based,
// restartable simulation tasks producing time-aligned samples.
//
// A Task owns one trajectory: a live simulator (either the flat Gillespie
// engine or the CWC term-rewriting engine — anything implementing
// Simulator), the trajectory's end time, the simulation quantum (how much
// simulated time one scheduling step advances) and the sampling period τ.
// Each RunQuantum call advances the simulator by one quantum and emits the
// samples whose nominal instants were crossed, using the exact SSA
// piecewise-constant state semantics (the state at time t is the state
// after the last reaction at or before t).
//
// Tasks are the unit of work dispatched to the simulation-engine farm: an
// unfinished task is rescheduled through the farm's feedback channel, which
// is what gives the pipeline its load-balancing behaviour on heavily uneven
// trajectories.
//
// The batching entry point, RunQuantumBatch, writes a quantum's samples
// into a Batch backed by a single flat arena — one allocation per quantum
// (amortised to none once the Batch pool warms up) instead of one per
// sample — which is what keeps the sim→align→stats path allocation-free in
// steady state.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Simulator is the stepping contract shared by the SSA engines
// (gillespie.Direct, gillespie.NextReaction, cwc.Engine).
type Simulator interface {
	// Time returns the current simulation time.
	Time() float64
	// Step fires one reaction, returning false in a dead state.
	Step() bool
	// NumSpecies is the dimension of the observable vector.
	NumSpecies() int
	// Observe copies the current observable state into out
	// (len(out) == NumSpecies()).
	Observe(out []int64)
}

// SnapshotSimulator is the optional Simulator extension for engines whose
// complete dynamic state (species counts, clock, RNG) can be exported and
// restored — the gillespie engines implement it, the CWC term-rewriting
// engine does not (its state is an arbitrary compartment tree). A restored
// engine must continue its trajectory bit-identically. Tasks over plain
// Simulators are still recoverable by deterministic replay from the seed;
// a snapshot just skips the replayed prefix.
type SnapshotSimulator interface {
	Simulator
	// Snapshot exports the engine's complete dynamic state.
	Snapshot() ([]byte, error)
	// Restore replaces the engine's dynamic state with a snapshot taken
	// from an engine over the same model.
	Restore([]byte) error
}

// Sample is one observation of one trajectory at an aligned instant
// k·Period. Samples from all trajectories at equal Index form a "cut".
type Sample struct {
	Traj  int
	Index int
	Time  float64
	State []int64
}

// Batch is one quantum's worth of samples from one trajectory, every
// State backed by a single flat arena: filling a batch costs one arena
// allocation however many samples the quantum crossed, and a recycled
// batch costs none.
//
// Ownership protocol: the producer fills the batch (RunQuantumBatch or
// Append), hands it downstream, and exactly one consumer calls Release
// after the last read of Samples. After Release neither the batch nor any
// Sample.State obtained from it may be touched — the arena is reused by
// the next GetBatch caller. Consumers that need a sample's state beyond
// the batch's lifetime must copy it (the window.Aligner does).
type Batch struct {
	Samples []Sample
	arena   []int64
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty batch from the shared pool.
func GetBatch() *Batch { return batchPool.Get().(*Batch) }

// BatchOf returns a pooled batch holding copies of samples, which must all
// come from one trajectory — how samples decoded off the wire rejoin the
// batch-recycling pipeline.
func BatchOf(samples []Sample) *Batch {
	b := GetBatch()
	for _, s := range samples {
		b.Append(s)
	}
	return b
}

// Release empties the batch and returns it (arena included) to the shared
// pool. The caller must not retain the batch, its Samples slice, or any
// Sample.State backed by it.
func (b *Batch) Release() {
	b.Reset()
	batchPool.Put(b)
}

// Reset empties the batch, keeping its capacity, without returning it to
// the pool — for single-owner reuse across quanta.
func (b *Batch) Reset() {
	b.Samples = b.Samples[:0]
	b.arena = b.arena[:0]
}

// Append copies one sample into the batch, its state into the arena.
func (b *Batch) Append(s Sample) {
	b.add(s.Traj, s.Index, s.Time, s.State)
}

// add appends a sample whose state is copied into the arena. All samples
// of a batch must share one state width (true for a batch filled from one
// trajectory), which is what lets grow re-point earlier samples.
func (b *Batch) add(traj, idx int, t float64, state []int64) {
	ns := len(state)
	off := len(b.arena)
	if cap(b.arena) < off+ns {
		b.grow(off+ns, ns)
	}
	b.arena = b.arena[:off+ns]
	copy(b.arena[off:], state)
	b.Samples = append(b.Samples, Sample{
		Traj:  traj,
		Index: idx,
		Time:  t,
		State: b.arena[off : off+ns : off+ns],
	})
}

// grow relocates the arena to a larger backing array and re-points every
// emitted sample's State into it (samples are laid out contiguously:
// sample i occupies arena[i*ns : (i+1)*ns]).
func (b *Batch) grow(need, ns int) {
	newCap := 2*cap(b.arena) + need
	na := make([]int64, len(b.arena), newCap)
	copy(na, b.arena)
	b.arena = na
	for i := range b.Samples {
		off := i * ns
		b.Samples[i].State = na[off : off+ns : off+ns]
	}
}

// Task is one trajectory's simulation work, advanced one quantum at a time.
type Task struct {
	Traj    int
	End     float64
	Quantum float64
	Period  float64

	sim     Simulator
	nextIdx int
	lastIdx int
	dead    bool
	scratch []int64
}

// NewTask wraps a simulator into a task for trajectory traj. end is the
// simulated horizon, quantum the amount of simulated time advanced per
// RunQuantum call, and period the sampling interval τ. Samples are emitted
// at k·period for k = 0 .. floor(end/period).
func NewTask(traj int, s Simulator, end, quantum, period float64) (*Task, error) {
	if s == nil {
		return nil, errors.New("sim: nil simulator")
	}
	if end <= 0 || quantum <= 0 || period <= 0 {
		return nil, fmt.Errorf("sim: end, quantum and period must be positive (got %g, %g, %g)", end, quantum, period)
	}
	n := s.NumSpecies()
	return &Task{
		Traj:    traj,
		End:     end,
		Quantum: quantum,
		Period:  period,
		sim:     s,
		lastIdx: int(math.Floor(end / period)),
		// Observe writes the scratch on every step. Capacity in whole 64-byte
		// cache lines puts it in a size class of whole lines, so it shares
		// no line with the task the pool's feeder built just before, which
		// another worker may be stepping at the same moment.
		scratch: make([]int64, n, (n+7)/8*8),
	}, nil
}

// NumSamples returns the total number of samples the task will emit.
func (t *Task) NumSamples() int { return t.lastIdx + 1 }

// Done reports whether every sample has been emitted.
func (t *Task) Done() bool { return t.nextIdx > t.lastIdx }

// Dead reports whether the underlying system reached a dead state (no
// reaction can fire). A dead task still emits its remaining samples — the
// state is frozen forever — and then completes.
func (t *Task) Dead() bool { return t.dead }

// Time returns the simulator's current time.
func (t *Task) Time() float64 { return t.sim.Time() }

// Steps returns the number of reactions fired, when the simulator exposes
// it (both provided engines do); otherwise 0.
func (t *Task) Steps() uint64 {
	if s, ok := t.sim.(interface{ Steps() uint64 }); ok {
		return s.Steps()
	}
	return 0
}

// NextIndex returns the index of the next sample the task will emit —
// samples below it have already been delivered.
func (t *Task) NextIndex() int { return t.nextIdx }

// Snapshots reports whether Snapshot and Restore work on this task, i.e.
// whether its simulator implements SnapshotSimulator.
func (t *Task) Snapshots() bool {
	_, ok := t.sim.(SnapshotSimulator)
	return ok
}

// taskSnapVersion guards the Task checkpoint layout.
const taskSnapVersion = 1

// Snapshot captures the task's resume point — the next sample index, the
// dead flag and the simulator's full state — as an opaque checkpoint for
// the durable job store. ok is false (with no error) when the simulator
// does not implement SnapshotSimulator: such tasks are recovered by
// replaying the trajectory from its seed instead.
func (t *Task) Snapshot() (data []byte, ok bool, err error) {
	ss, ok := t.sim.(SnapshotSimulator)
	if !ok {
		return nil, false, nil
	}
	sim, err := ss.Snapshot()
	if err != nil {
		return nil, false, err
	}
	data = make([]byte, 0, 10+len(sim))
	data = append(data, taskSnapVersion)
	data = binary.LittleEndian.AppendUint64(data, uint64(t.nextIdx))
	var dead byte
	if t.dead {
		dead = 1
	}
	data = append(data, dead)
	data = append(data, sim...)
	return data, true, nil
}

// Restore rewinds a freshly built task (same trajectory, same spec) to a
// checkpoint taken by Snapshot: the simulator state, the dead flag and
// the next sample index are restored, so the next RunQuantum continues
// the trajectory bit-identically from the checkpoint.
func (t *Task) Restore(data []byte) error {
	ss, ok := t.sim.(SnapshotSimulator)
	if !ok {
		return errors.New("sim: simulator does not support snapshots")
	}
	if len(data) < 10 {
		return errors.New("sim: truncated task checkpoint")
	}
	if data[0] != taskSnapVersion {
		return fmt.Errorf("sim: task checkpoint version %d, want %d", data[0], taskSnapVersion)
	}
	nextIdx := int(binary.LittleEndian.Uint64(data[1:9]))
	if nextIdx < 0 || nextIdx > t.lastIdx+1 {
		return fmt.Errorf("sim: checkpoint sample index %d out of range (task has %d samples)", nextIdx, t.lastIdx+1)
	}
	if err := ss.Restore(data[10:]); err != nil {
		return err
	}
	t.nextIdx = nextIdx
	t.dead = data[9] != 0
	return nil
}

// RunQuantum advances the trajectory by one simulation quantum (or to the
// end time, whichever is closer), emitting every sample whose instant was
// crossed. It is a no-op on a completed task. Each emitted sample's State
// is a fresh allocation owned by the callee; use RunQuantumBatch for the
// allocation-free batched form.
func (t *Task) RunQuantum(emit func(Sample) error) error {
	return t.runQuantum(func() error {
		state := make([]int64, len(t.scratch))
		copy(state, t.scratch)
		return emit(Sample{
			Traj:  t.Traj,
			Index: t.nextIdx,
			Time:  float64(t.nextIdx) * t.Period,
			State: state,
		})
	})
}

// RunQuantumBatch advances the trajectory by one simulation quantum like
// RunQuantum, but gathers the quantum's samples into b — every state
// copied into the batch's shared arena, so the whole quantum costs at most
// one allocation (none once the arena has grown to the quantum's sample
// count). This is the batching entry point of core.RunSlice, the slice
// loop of the simulation farm that core.Run, the job service's pool and
// every sim worker run: a slice gathers one or more quanta of a
// trajectory into one batch, which crosses the farm's collector in a
// single hop and is recycled afterwards. RunGPU's launch loop calls it
// once per kernel item.
//
// The emitted samples alias the batch arena, never the task's scratch
// state: they stay valid (and mutually independent) until the batch is
// Released or Reset.
func (t *Task) RunQuantumBatch(b *Batch) error {
	return t.runQuantum(func() error {
		b.add(t.Traj, t.nextIdx, float64(t.nextIdx)*t.Period, t.scratch)
		return nil
	})
}

// runQuantum advances the simulator by one quantum, invoking emitCurrent
// for every sample instant crossed. emitCurrent must publish the sample at
// index t.nextIdx from t.scratch; runQuantum advances nextIdx afterwards.
func (t *Task) runQuantum(emitCurrent func() error) error {
	if t.Done() {
		return nil
	}
	target := math.Min(t.sim.Time()+t.Quantum, t.End)
	for !t.dead && t.sim.Time() < target {
		// The current state holds on [Time, nextStepTime): snapshot it
		// before stepping, then emit the samples inside that interval.
		t.sim.Observe(t.scratch)
		if !t.sim.Step() {
			t.dead = true
			break
		}
		tAfter := t.sim.Time()
		// Emit all pending samples with instant strictly before tAfter
		// (the state in scratch holds on that half-open interval).
		for t.nextIdx <= t.lastIdx && float64(t.nextIdx)*t.Period < tAfter {
			if err := emitCurrent(); err != nil {
				return err
			}
			t.nextIdx++
		}
	}
	// A dead system's state is frozen: all remaining samples equal the
	// current state. Similarly, if the simulator landed exactly on the end
	// time, flush the samples at or before it.
	if t.dead || t.sim.Time() >= t.End {
		t.sim.Observe(t.scratch)
		limit := t.sim.Time()
		if t.dead {
			limit = math.Inf(1)
		}
		for t.nextIdx <= t.lastIdx && float64(t.nextIdx)*t.Period <= limit {
			if err := emitCurrent(); err != nil {
				return err
			}
			t.nextIdx++
		}
	}
	return nil
}
