package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cwcflow/internal/sim"
)

// countSim is a synthetic engine: one step per unit of simulated time, no
// randomness, its one species the step count. With Quantum = Period = 1
// and an End half a period past the last sample, every quantum crosses
// exactly one sample instant.
type countSim struct{ steps uint64 }

func (s *countSim) Time() float64       { return float64(s.steps) }
func (s *countSim) Step() bool          { s.steps++; return true }
func (s *countSim) NumSpecies() int     { return 1 }
func (s *countSim) Observe(out []int64) { out[0] = int64(s.steps) }
func (s *countSim) Steps() uint64       { return s.steps }

// countTask is trajectory traj of n samples (0 … n-1) over a countSim, one
// a quantum.
func countTask(t *testing.T, traj, n int) *sim.Task {
	t.Helper()
	task, err := sim.NewTask(traj, &countSim{}, float64(n)-0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// farmRecord is what a recording owner saw of one delivered slice.
type farmRecord struct {
	traj, start    int
	samples        []int // sample indices, in batch order
	slabEnd, done  bool
	err            error
	afterSliceSeen bool
}

// recOwner is a SlabOwner that records every slice the farm delivers and
// closes done once slabs slabs have ended. admit, after and deliver, when
// non-nil, run inside Admit, AfterSlice and Deliver.
type recOwner struct {
	slabs   int
	admit   func(s *SimSlab, sl *Slice) bool
	after   func(s *SimSlab, sl *Slice)
	deliver func(sl Slice) error

	got   []farmRecord // collector only; read after done
	ended int
	done  chan struct{}
}

func newRecOwner(slabs int) *recOwner {
	return &recOwner{slabs: slabs, done: make(chan struct{})}
}

func (o *recOwner) Admit(s *SimSlab, sl *Slice) bool {
	if o.admit != nil {
		return o.admit(s, sl)
	}
	return true
}

func (o *recOwner) AfterSlice(s *SimSlab, sl *Slice) {
	sl.Steps = 1 << 62 // marks the slice as having passed AfterSlice
	if o.after != nil {
		o.after(s, sl)
	}
}

func (o *recOwner) Deliver(sl Slice) error {
	r := farmRecord{traj: sl.Traj, start: sl.Start, slabEnd: sl.SlabEnd, done: sl.TaskDone, err: sl.Err,
		afterSliceSeen: sl.Steps >= 1<<62}
	if sl.Batch != nil {
		for _, s := range sl.Batch.Samples {
			r.samples = append(r.samples, s.Index)
		}
		sl.Batch.Release()
	}
	o.got = append(o.got, r)
	if o.deliver != nil {
		if err := o.deliver(sl); err != nil {
			return err
		}
	}
	if sl.SlabEnd {
		if o.ended++; o.ended == o.slabs {
			close(o.done)
		}
	}
	return nil
}

// wait blocks until every slab has ended, failing the test after a
// deadline.
func (o *recOwner) wait(t *testing.T) {
	t.Helper()
	select {
	case <-o.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d slabs ended", o.ended, o.slabs)
	}
}

// laneQueue is a TaskQueue that dispatches round-robin across
// traj%len(lanes) lanes, FIFO within a lane: the shape of the serve pool's
// fair queue.
type laneQueue struct {
	lanes [][]SimSlab
	next  int
}

func (q *laneQueue) Push(s SimSlab) {
	l := s.Task.Traj % len(q.lanes)
	q.lanes[l] = append(q.lanes[l], s)
}

func (q *laneQueue) Pop() (SimSlab, bool) {
	for i := range q.lanes {
		l := (q.next + i) % len(q.lanes)
		if len(q.lanes[l]) > 0 {
			s := q.lanes[l][0]
			q.lanes[l] = q.lanes[l][1:]
			q.next = l + 1
			return s, true
		}
	}
	return SimSlab{}, false
}

// farmPolicies lists the dispatch paths of the farm: on demand through a
// one-deep channel, through a deep one, and through a round-robin
// TaskQueue (the rendezvous path a pluggable queue selects), each with and
// without serve's slice budget.
func farmPolicies() []struct {
	name  string
	build func(workers int) *SimFarm
} {
	budget := SliceBudget{Steps: 3, Time: time.Hour}
	return []struct {
		name  string
		build func(workers int) *SimFarm
	}{
		{"on-demand", func(n int) *SimFarm { return NewSimFarm(n, 1, nil, SliceBudget{}) }},
		{"on-demand-deep", func(n int) *SimFarm { return NewSimFarm(n, 16, nil, SliceBudget{}) }},
		{"round-robin", func(n int) *SimFarm {
			return NewSimFarm(n, 1, &laneQueue{lanes: make([][]SimSlab, 4)}, SliceBudget{})
		}},
		{"on-demand-budget", func(n int) *SimFarm { return NewSimFarm(n, 1, nil, budget) }},
		{"round-robin-budget", func(n int) *SimFarm {
			return NewSimFarm(n, 1, &laneQueue{lanes: make([][]SimSlab, 4)}, budget)
		}},
	}
}

// runFarm injects one slab per entry of lengths (trajectory i has
// lengths[i] samples, slices end at multiples of window) into a farm of
// workers built by build, waits for every slab to end and closes the farm.
func runFarm(t *testing.T, build func(int) *SimFarm, workers, window int, lengths []int, o *recOwner) {
	t.Helper()
	farm := build(workers)
	defer farm.Close()
	for traj, n := range lengths {
		farm.Inject(SimSlab{Owner: o, Task: countTask(t, traj, n), Window: window})
	}
	o.wait(t)
}

// checkComplete reports, for each trajectory, whether it received every
// sample exactly once and in order, ended its slab exactly once with its
// task done, and saw every slice pass AfterSlice.
func checkComplete(got []farmRecord, lengths []int) error {
	samples := make([][]int, len(lengths))
	ends := make([]int, len(lengths))
	for _, r := range got {
		if r.err != nil {
			return fmt.Errorf("trajectory %d: %v", r.traj, r.err)
		}
		if !r.afterSliceSeen {
			return fmt.Errorf("trajectory %d: a slice skipped AfterSlice", r.traj)
		}
		if ends[r.traj] > 0 {
			return fmt.Errorf("trajectory %d: a slice after its slab ended", r.traj)
		}
		if r.start != len(samples[r.traj]) {
			return fmt.Errorf("trajectory %d: slice starts at %d, frontier %d", r.traj, r.start, len(samples[r.traj]))
		}
		samples[r.traj] = append(samples[r.traj], r.samples...)
		if r.slabEnd {
			if !r.done {
				return fmt.Errorf("trajectory %d: slab ended before its task", r.traj)
			}
			ends[r.traj]++
		}
	}
	for traj, n := range lengths {
		if ends[traj] != 1 {
			return fmt.Errorf("trajectory %d: %d slab ends, want 1", traj, ends[traj])
		}
		for i, idx := range samples[traj] {
			if idx != i {
				return fmt.Errorf("trajectory %d: sample %d has index %d", traj, i, idx)
			}
		}
		if len(samples[traj]) != n {
			return fmt.Errorf("trajectory %d: %d samples, want %d", traj, len(samples[traj]), n)
		}
	}
	return nil
}

// Every dispatch path delivers every sample of every trajectory once, in
// order per trajectory, in window-bounded slices, and ends each slab once.
func TestSimFarmAllPoliciesCompleteness(t *testing.T) {
	lengths := make([]int, 100)
	for i := range lengths {
		lengths[i] = 1 + i%37
	}
	for _, tc := range farmPolicies() {
		t.Run(tc.name, func(t *testing.T) {
			o := newRecOwner(len(lengths))
			runFarm(t, tc.build, 4, 8, lengths, o)
			if err := checkComplete(o.got, lengths); err != nil {
				t.Fatal(err)
			}
			for _, r := range o.got {
				if len(r.samples) > 0 && r.samples[0]/8 != r.samples[len(r.samples)-1]/8 {
					t.Fatalf("trajectory %d: slice %v crosses a window boundary", r.traj, r.samples)
				}
			}
		})
	}
}

// A slab runs in as many slices as it has windows (or budgets) and emits
// its samples during every one of them, not only at its end; the slab's
// slices re-enter the farm through the feedback channel in between.
func TestSimFarmEmitsDuringSlices(t *testing.T) {
	lengths := []int{3, 5, 1, 2, 16}
	for _, tc := range []struct {
		name   string
		budget SliceBudget
		want   func(n int) int // slices for a trajectory of n samples
	}{
		{"window", SliceBudget{}, func(n int) int { return (n + 1) / 2 }},
		// One step a quantum: a budget of one step ends every slice after
		// one quantum, a sample a slice.
		{"budget", SliceBudget{Steps: 1, Time: time.Hour}, func(n int) int { return n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newRecOwner(len(lengths))
			runFarm(t, func(n int) *SimFarm { return NewSimFarm(n, 1, nil, tc.budget) }, 3, 2, lengths, o)
			if err := checkComplete(o.got, lengths); err != nil {
				t.Fatal(err)
			}
			slicesOf := make([]int, len(lengths))
			for _, r := range o.got {
				if len(r.samples) == 0 {
					t.Fatalf("trajectory %d: a slice with no sample", r.traj)
				}
				slicesOf[r.traj]++
			}
			for traj, n := range lengths {
				if slicesOf[traj] != tc.want(n) {
					t.Fatalf("trajectory %d of %d samples: %d slices, want %d", traj, n, slicesOf[traj], tc.want(n))
				}
			}
		})
	}
}

// A slab whose owner extends it one sample at a time, the way serve's
// scheduler extends a slab past its Until, counts down through the
// feedback channel: one slice per extension, the farm stays up while the
// extended slabs are in flight, and each slab ends once, at its last
// sample.
func TestSimFarmCountdown(t *testing.T) {
	lengths := []int{4, 1, 6, 2, 8}
	o := newRecOwner(len(lengths))
	o.after = func(s *SimSlab, sl *Slice) {
		if sl.SlabEnd && s.Until < lengths[s.Task.Traj] {
			sl.SlabEnd = false
			s.Until++
		}
	}
	farm := NewSimFarm(4, 1, nil, SliceBudget{})
	defer farm.Close()
	for traj, n := range lengths {
		farm.Inject(SimSlab{Owner: o, Task: countTask(t, traj, n), Until: 1, Window: n})
	}
	o.wait(t)
	if err := checkComplete(o.got, lengths); err != nil {
		t.Fatal(err)
	}
	slicesOf := make([]int, len(lengths))
	for _, r := range o.got {
		slicesOf[r.traj]++
	}
	for traj, n := range lengths {
		if slicesOf[traj] != n {
			t.Fatalf("trajectory %d counted down from %d in %d slices", traj, n, slicesOf[traj])
		}
	}
}

// With one worker and the default FIFO, slabs of one slice each are
// delivered in injection order: the farm degenerates to a sequential loop.
func TestSimFarmSingleWorkerKeepsOrder(t *testing.T) {
	lengths := make([]int, 100)
	for i := range lengths {
		lengths[i] = 1 + i%5
	}
	o := newRecOwner(len(lengths))
	runFarm(t, func(n int) *SimFarm { return NewSimFarm(n, 1, nil, SliceBudget{}) }, 1, 8, lengths, o)
	if len(o.got) != len(lengths) {
		t.Fatalf("%d slices for %d one-slice slabs", len(o.got), len(lengths))
	}
	for i, r := range o.got {
		if r.traj != i {
			t.Fatalf("slice %d is trajectory %d: the single-worker farm reordered", i, r.traj)
		}
	}
}

// No sample is lost or duplicated, and every slab ends exactly once, for
// any mix of trajectory lengths, windows and farm widths.
func TestSimFarmProperty_NoLossNoDuplication(t *testing.T) {
	f := func(raw []uint8, workers, window uint8) bool {
		lengths := make([]int, len(raw)%40+1)
		for i := range lengths {
			if i < len(raw) {
				lengths[i] = 1 + int(raw[i]%50)
			} else {
				lengths[i] = 1
			}
		}
		o := newRecOwner(len(lengths))
		runFarm(t, func(n int) *SimFarm { return NewSimFarm(n, 1, nil, SliceBudget{}) },
			int(workers%7)+1, int(window%9)+1, lengths, o)
		return checkComplete(o.got, lengths) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Every slab completes exactly once on the farm workers, and the collector
// sees exactly one slab end for it, for any mix of trajectory lengths,
// windows, farm widths and dispatch paths.
func TestSimFarmProperty_OneEndPerSlab(t *testing.T) {
	policies := farmPolicies()
	f := func(raw []uint8, workers, window, policy uint8) bool {
		lengths := make([]int, len(raw)%30+1)
		for i := range lengths {
			lengths[i] = 1
			if i < len(raw) {
				lengths[i] += int(raw[i] % 16)
			}
		}
		var completions atomic.Int64
		o := newRecOwner(len(lengths))
		o.after = func(_ *SimSlab, sl *Slice) {
			if sl.SlabEnd && sl.TaskDone {
				completions.Add(1)
			}
		}
		runFarm(t, policies[int(policy)%len(policies)].build, int(workers%5)+1, int(window%6)+1, lengths, o)
		return checkComplete(o.got, lengths) == nil && completions.Load() == int64(len(lengths))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Failures end a slab and reach its owner's Deliver, on every dispatch
// path, on the first slice of a slab (a slab the owner cannot admit) or on
// a later one, after the slab came back through the feedback channel; a
// Deliver error stops the farm, so no slice is delivered after it.
func TestSimFarmErrors(t *testing.T) {
	boom := errors.New("slice boom")
	for _, policy := range farmPolicies() {
		for _, tc := range []struct {
			name  string
			setup func(o *recOwner)
		}{
			{"first-slice", func(o *recOwner) {
				o.admit = func(s *SimSlab, sl *Slice) bool {
					if s.Task.Traj == 7 {
						sl.Err = boom
						return false
					}
					return true
				}
			}},
			{"fed-back-slice", func(o *recOwner) {
				o.after = func(s *SimSlab, sl *Slice) {
					if s.Task.Traj == 7 && sl.Start == 6 {
						sl.Err, sl.SlabEnd = boom, true
					}
				}
			}},
		} {
			t.Run(policy.name+"/"+tc.name, func(t *testing.T) {
				o := newRecOwner(-1)
				tc.setup(o)
				failed := make(chan struct{})
				o.deliver = func(sl Slice) error {
					if sl.Err != nil {
						close(failed)
						return sl.Err
					}
					return nil
				}
				farm := policy.build(3)
				defer farm.Close()
				for traj := 0; traj < 50; traj++ {
					farm.Inject(SimSlab{Owner: o, Task: countTask(t, traj, 20), Window: 3})
				}
				select {
				case <-failed:
				case <-time.After(10 * time.Second):
					t.Fatal("the failing slice never reached Deliver")
				}
				farm.Close()
				last := o.got[len(o.got)-1]
				if !errors.Is(last.err, boom) || last.traj != 7 || !last.slabEnd {
					t.Fatalf("last delivered slice %+v, want trajectory 7's failure ending its slab", last)
				}
			})
		}
	}
}

// Close stops a farm mid-run: it returns promptly with slabs still
// queued, no Deliver runs after it returns, and no goroutine of the farm
// is left behind.
func TestSimFarmCloseMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	o := newRecOwner(-1) // never done
	delivered := make(chan struct{}, 1)
	o.deliver = func(Slice) error {
		select {
		case delivered <- struct{}{}:
		default:
		}
		return nil
	}
	farm := NewSimFarm(2, 1, nil, SliceBudget{})
	for traj := 0; traj < 64; traj++ {
		farm.Inject(SimSlab{Owner: o, Task: countTask(t, traj, 100_000), Window: 4})
	}
	<-delivered
	start := time.Now()
	farm.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v", d)
	}
	// o.got is the collector's: reading it here races with any Deliver
	// still running, which -race reports.
	if slices.ContainsFunc(o.got, func(r farmRecord) bool { return r.done }) {
		t.Fatal("a 100 000-sample trajectory finished before Close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
	// A stopped farm drops what it is given.
	farm.Inject(SimSlab{Owner: o, Task: countTask(t, 0, 2), Window: 4})
}
