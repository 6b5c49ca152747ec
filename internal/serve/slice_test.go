package serve

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/serve/sched"
	"cwcflow/internal/sim"
)

// tickSim is a synthetic engine with a fixed stepsPerQuantum steps per unit
// of simulated time and no randomness: with Quantum = Period = 1 every
// quantum crosses exactly one sample instant. It does not report its steps,
// so only the clock bounds its slices; countedTickSim does.
type tickSim struct {
	steps           uint64
	stepsPerQuantum int
}

func (s *tickSim) Time() float64       { return float64(s.steps) / float64(s.stepsPerQuantum) }
func (s *tickSim) Step() bool          { s.steps++; return true }
func (s *tickSim) NumSpecies() int     { return 1 }
func (s *tickSim) Observe(out []int64) { out[0] = int64(s.steps) }

type countedTickSim struct{ tickSim }

func (s *countedTickSim) Steps() uint64 { return s.steps }

// sliceJob builds a job the way Submit would, on a server of its own, but
// neither registers nor starts it: the test drives core.RunSlice by hand.
func sliceJob(t *testing.T, factory core.SimulatorFactory, trajectories int, end, period float64, windowSize int) *Job {
	t.Helper()
	cfg, err := core.Config{
		Factory: factory, Trajectories: trajectories, End: end, Period: period,
		WindowSize: windowSize, BaseSeed: 3,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	species, err := core.ResolveSpecies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{Workers: 1, StatEngines: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	job := svc.newJob("job-slice", JobSpec{}, cfg, species, int(end/period)+1)
	t.Cleanup(job.Cancel)
	return job
}

func builtin(t *testing.T, name string) core.SimulatorFactory {
	t.Helper()
	f, err := core.FactoryFor(core.ModelRef{Name: name, Omega: 100})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// slice is one delivery as the collector would see it.
type slice struct {
	first, last int // sample indices, -1 for an empty batch
	samples     int
	quanta      int
	slabEnd     bool
	taskDone    bool
}

// noClock is the time budget of the tests that pin the step budget: never
// spent, so where a slice ends does not depend on how fast the test ran.
const noClock = time.Hour

// runSlices drives one task through core.RunSlice, with the given time budget,
// until it leaves the farm, releasing every batch, and returns its
// deliveries. before, when non-nil, runs ahead of every slice.
func runSlices(t *testing.T, job *Job, traj, until int, maxTime time.Duration, before func(n int) (stop bool)) (out []slice, samples []sim.Sample) {
	t.Helper()
	task, err := core.NewTrajectoryTask(job.cfg, traj)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(d core.Slice) {
		s := slice{first: -1, last: -1, quanta: d.Quanta, slabEnd: d.SlabEnd, taskDone: d.TaskDone}
		if d.Err != nil {
			t.Fatalf("trajectory %d: %v", traj, d.Err)
		}
		if d.Batch != nil {
			s.samples = len(d.Batch.Samples)
			s.first, s.last = d.Batch.Samples[0].Index, d.Batch.Samples[s.samples-1].Index
			for _, smp := range d.Batch.Samples {
				smp.State = append([]int64(nil), smp.State...)
				samples = append(samples, smp)
			}
			d.Batch.Release()
		}
		out = append(out, s)
	}
	for n := 0; ; n++ {
		if before != nil && before(n) {
			return out, samples
		}
		var d core.Slice
		core.RunSlice(&core.SimSlab{Owner: job.sched, Task: task, Until: until, Window: job.cfg.WindowSize},
			&d, core.SliceBudget{Steps: sliceSteps, Time: maxTime})
		emit(d)
		if d.SlabEnd {
			return out, samples
		}
	}
}

// referenceRun is the same trajectory advanced one quantum at a time.
func referenceRun(t *testing.T, job *Job, traj int) (quanta int, samples []sim.Sample) {
	t.Helper()
	task, err := core.NewTrajectoryTask(job.cfg, traj)
	if err != nil {
		t.Fatal(err)
	}
	for !task.Done() {
		if err := task.RunQuantum(func(s sim.Sample) error {
			samples = append(samples, s)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		quanta++
	}
	return quanta, samples
}

// Cheap quanta coalesce: a trajectory crosses the farm about once per
// window instead of once per sample, the quanta and the samples are those
// of the quantum-by-quantum run, and no slice runs on past a window
// boundary.
func TestSliceCoalescesCheapQuantaUpToWindowBoundary(t *testing.T) {
	const w = 16
	t.Run("tick", func(t *testing.T) {
		// 2 steps a quantum: the 128-step budget is 64 quanta, so the
		// window boundary is what ends every slice.
		job := sliceJob(t, func(int, int64) (sim.Simulator, error) {
			return &countedTickSim{tickSim{stepsPerQuantum: 2}}, nil
		}, 1, 100, 1, w)
		slices, _ := runSlices(t, job, 0, 0, noClock, nil)
		if want := (101 + w - 1) / w; len(slices) != want {
			t.Fatalf("%d deliveries for 101 samples, want %d", len(slices), want)
		}
		for i, s := range slices {
			if s.first/w != s.last/w || s.first%w != 0 {
				t.Fatalf("delivery %d covers samples %d..%d: not one window from its start", i, s.first, s.last)
			}
			// The task's last quantum also flushes the sample at End.
			if s.quanta != s.samples && !s.taskDone {
				t.Fatalf("delivery %d: %d quanta for %d samples, want one each", i, s.quanta, s.samples)
			}
		}
	})
	t.Run("tick/step-budget", func(t *testing.T) {
		// 40 steps a quantum: the budget is spent after ⌈128/40⌉ = 4 quanta.
		job := sliceJob(t, func(int, int64) (sim.Simulator, error) {
			return &countedTickSim{tickSim{stepsPerQuantum: 40}}, nil
		}, 1, 31, 1, w)
		slices, _ := runSlices(t, job, 0, 0, noClock, nil)
		for i, s := range slices {
			if s.quanta != 4 && !s.taskDone {
				t.Fatalf("delivery %d: %d quanta, want 4 (128 steps at 40 a quantum)", i, s.quanta)
			}
		}
	})
	t.Run("sir", func(t *testing.T) {
		// The stats-heavy.local trajectory. A quantum of a real engine can
		// cross several sample instants, so only the counts are pinned.
		job := sliceJob(t, builtin(t, "sir"), 8, 5, 0.05, w)
		for traj := 0; traj < 8; traj++ {
			slices, got := runSlices(t, job, traj, 0, noClock, nil)
			quanta, want := referenceRun(t, job, traj)
			if max := (len(want)+w-1)/w + 1; len(slices) > max {
				t.Fatalf("trajectory %d: %d deliveries for %d samples, want ≤ %d", traj, len(slices), len(want), max)
			}
			sum := 0
			for _, s := range slices {
				sum += s.quanta
			}
			if sum != quanta {
				t.Fatalf("trajectory %d: deliveries carry %d quanta, the task ran %d", traj, sum, quanta)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trajectory %d: coalesced samples differ from the quantum-by-quantum run", traj)
			}
			if last := slices[len(slices)-1]; !last.taskDone || !last.slabEnd {
				t.Fatalf("trajectory %d: last delivery %+v does not end the task", traj, last)
			}
		}
	})
}

// An expensive quantum is a slice of its own: the budget sits below one
// neurospora quantum (≈ 290 steps), so sim-heavy jobs are scheduled as
// before. Only the odd quiet quantum, under 128 steps, takes the next one
// along.
func TestSliceLeavesExpensiveQuantaAlone(t *testing.T) {
	job := sliceJob(t, builtin(t, "neurospora"), 4, 48, 0.5, 16)
	for traj := 0; traj < 4; traj++ {
		slices, _ := runSlices(t, job, traj, 0, noClock, nil)
		paired := 0
		for i, s := range slices {
			switch s.quanta {
			case 1:
			case 2:
				paired++
			default:
				t.Fatalf("trajectory %d delivery %d: %d quanta, want 1", traj, i, s.quanta)
			}
		}
		if paired > len(slices)/20 {
			t.Fatalf("trajectory %d: %d of %d deliveries carry two quanta, want one quantum a delivery", traj, paired, len(slices))
		}
	}
}

// The clock bounds what the step count does not: a quantum that outlasts
// the time budget is a slice of its own however few steps it reports — the
// case of an engine whose steps are dear, or not counted — and with time to
// spare such an engine still stops at the window boundary. A zero budget
// stands in for the slow quantum; nothing sleeps.
func TestSliceTimeBudgetBoundsFewStepQuanta(t *testing.T) {
	const w = 16
	engines := map[string]core.SimulatorFactory{
		"uncounted": func(int, int64) (sim.Simulator, error) { return &tickSim{stepsPerQuantum: 2}, nil },
		"counted":   func(int, int64) (sim.Simulator, error) { return &countedTickSim{tickSim{stepsPerQuantum: 2}}, nil },
	}
	for name, factory := range engines {
		t.Run(name, func(t *testing.T) {
			job := sliceJob(t, factory, 1, 100, 1, w)
			slices, samples := runSlices(t, job, 0, 0, 0, nil)
			if len(samples) != 101 {
				t.Fatalf("%d samples, want 101", len(samples))
			}
			for i, s := range slices {
				if s.quanta != 1 {
					t.Fatalf("delivery %d: %d quanta with the time budget spent, want 1", i, s.quanta)
				}
			}
			slices, _ = runSlices(t, job, 0, 0, noClock, nil)
			if want := (101 + w - 1) / w; len(slices) != want {
				t.Fatalf("%d deliveries with time to spare, want %d (one a window)", len(slices), want)
			}
			for i, s := range slices {
				if s.first/w != s.last/w {
					t.Fatalf("delivery %d covers samples %d..%d across a window boundary", i, s.first, s.last)
				}
			}
		})
	}
}

// A slab's until and the job's congestion are honoured slice by slice.
func TestSliceHonoursUntilAndCongestion(t *testing.T) {
	job := sliceJob(t, func(int, int64) (sim.Simulator, error) {
		return &countedTickSim{tickSim{stepsPerQuantum: 2}}, nil
	}, 1, 100, 1, 16)

	// until inside a window ends the slice — and the slab — there.
	slices, _ := runSlices(t, job, 0, 21, noClock, nil)
	if len(slices) != 2 || slices[0].last != 15 || slices[1].first != 16 || slices[1].last != 20 {
		t.Fatalf("slab to 21 delivered %+v, want samples 0..15 then 16..20", slices)
	}
	if slices[0].slabEnd || !slices[1].slabEnd || slices[1].taskDone {
		t.Fatalf("slab to 21 ended as %+v, want the second delivery to end the slab but not the task", slices)
	}

	// Congested between two slices: the next slice runs no quantum and
	// ends the slab with no samples, handing the head back to the
	// scheduler.
	slices, _ = runSlices(t, job, 0, 0, noClock, func(n int) bool {
		if n == 1 {
			for !job.congested() {
				job.in.push(sim.GetBatch())
			}
		}
		return n == 2
	})
	if len(slices) != 2 || slices[0].last != 15 {
		t.Fatalf("congested after one slice, got deliveries %+v, want samples 0..15 then an empty slab end", slices)
	}
	if want := (slice{first: -1, last: -1, slabEnd: true}); slices[1] != want {
		t.Fatalf("congested slice delivered %+v, want %+v: no quantum, no samples, slab ended", slices[1], want)
	}
	if got := job.deferred.Load(); got != 1 {
		t.Fatalf("deferred = %d, want 1", got)
	}
}

// WFQ hands out dispatch slots, and a slot is a slice. Two tenants of
// equal weight running like jobs still split the pool's quanta evenly —
// counted in quanta, as the tenant counters are — at every point of a
// standing backlog. The dispatcher is replayed by hand: pop, run the
// slice, push back.
func TestWFQSlicesSplitQuantaBetweenEqualTenants(t *testing.T) {
	var quanta [2]atomic.Int64
	wfq := sched.NewWFQ(func(sl core.SimSlab) *sched.Flow[core.SimSlab] { return sl.Owner.(*slabSched).job.flow })
	var jobs [2]*Job
	for i := range jobs {
		jobs[i] = sliceJob(t, builtin(t, "sir"), 16, 5, 0.05, 16)
		jobs[i].cfg.BaseSeed = int64(100 * (i + 1))
		jobs[i].flow = wfq.NewFlow([]string{"alice", "bob"}[i], 1)
		jobs[i].tenantQuanta = &quanta[i]
		for traj := 0; traj < 16; traj++ {
			task, err := core.NewTrajectoryTask(jobs[i].cfg, traj)
			if err != nil {
				t.Fatal(err)
			}
			wfq.Push(core.SimSlab{Owner: jobs[i].sched, Task: task, Window: jobs[i].cfg.WindowSize})
		}
	}
	drop := func(d core.Slice) {
		if d.Batch != nil {
			d.Batch.Release()
		}
	}
	for slots := 1; ; slots++ {
		pt, ok := wfq.Pop()
		if !ok {
			t.Fatal("queue ran dry before either job finished")
		}
		var d core.Slice
		core.RunSlice(&pt, &d, core.SliceBudget{Steps: sliceSteps, Time: noClock})
		drop(d)
		if d.SlabEnd {
			break // the first trajectory finished: the backlog stops being standing
		}
		wfq.Push(pt)
		a, b := quanta[0].Load(), quanta[1].Load()
		if slots >= 40 && (float64(a) < 0.85*float64(b) || float64(b) < 0.85*float64(a)) {
			t.Fatalf("after %d slots alice has %d quanta and bob %d: not an even split ±15%%", slots, a, b)
		}
	}
	if a, b := quanta[0].Load(), quanta[1].Load(); a+b < 500 {
		t.Fatalf("only %d quanta dispatched before the first trajectory finished", a+b)
	}
}
