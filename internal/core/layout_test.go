package core_test

import (
	"reflect"
	"testing"

	"cwcflow/internal/core"
	"cwcflow/internal/sim"
)

// cacheLine is the coherence unit two cores contend for.
const cacheLine = 64

// region is one per-step-written object of one trajectory: bytes [lo, hi).
type region struct {
	lo, hi uintptr
	what   string
}

// stepWritten lists the memory a trajectory writes on every SSA step: the
// engine struct (clock, step count, RNG state), every slice the engine
// holds (species counts, propensities and, for the next-reaction method,
// firing times and the indexed heap) and the task's observation scratch.
// Reflection reads the unexported fields' addresses; nothing is written.
func stepWritten(t *testing.T, task *sim.Task) []region {
	t.Helper()
	tv := reflect.ValueOf(task).Elem()
	scratch := tv.FieldByName("scratch")
	out := []region{sliceRegion(scratch, "Task.scratch")}
	eng := tv.FieldByName("sim").Elem()
	if eng.Kind() != reflect.Pointer || eng.Elem().Kind() != reflect.Struct {
		t.Fatalf("engine is a %s, want a pointer to a struct", eng.Type())
	}
	name := eng.Type().Elem().Name()
	out = append(out, region{eng.Pointer(), eng.Pointer() + eng.Type().Elem().Size(), name})
	for i, s := 0, eng.Elem(); i < s.NumField(); i++ {
		if f := s.Field(i); f.Kind() == reflect.Slice {
			out = append(out, sliceRegion(f, name+"."+s.Type().Field(i).Name))
		}
	}
	return out
}

// sliceRegion is a slice's whole backing array, capacity included.
func sliceRegion(v reflect.Value, what string) region {
	lo := v.Pointer()
	return region{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size(), what}
}

// Trajectories migrate between pool workers every slice, and FIFO dispatch
// runs neighbours k and k+1 on two cores at once: if their per-step-written
// state shared a cache line, every step on one core would invalidate the
// other's copy. The state is laid out at its allocation site so that no
// line is ever shared, wherever the trajectories run. This builds a job's
// trajectories the way Pool.Submit's feeder does — back to back, from one
// goroutine — and checks no 64-byte line is touched by two of them.
func TestTrajectoryStateOwnsItsCacheLines(t *testing.T) {
	for _, model := range []string{"neurospora", "neurospora-nrm", "sir"} {
		t.Run(model, func(t *testing.T) {
			factory, err := core.FactoryFor(core.ModelRef{Name: model, Omega: 100})
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := core.Config{Factory: factory, Trajectories: 64, End: 48, Period: 0.5, WindowSize: 16}.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			tasks := make([]*sim.Task, cfg.Trajectories)
			for i := range tasks {
				if tasks[i], err = core.NewTrajectoryTask(cfg, i); err != nil {
					t.Fatal(err)
				}
			}
			owner := make(map[uintptr]int)
			what := make(map[uintptr]string)
			for traj, task := range tasks {
				for _, r := range stepWritten(t, task) {
					for line := r.lo / cacheLine; line <= (r.hi-1)/cacheLine; line++ {
						if prev, ok := owner[line]; ok && prev != traj {
							t.Fatalf("cache line %#x holds trajectory %d's %s and trajectory %d's %s", line*cacheLine, prev, what[line], traj, r.what)
						}
						owner[line], what[line] = traj, r.what
					}
				}
			}
		})
	}
}
