package ff

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func ints(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sourceSlice emits the items of a slice in order.
func sourceSlice[T any](items []T) Source[T] {
	return func(_ context.Context, emit Emit[T]) error {
		for _, v := range items {
			if err := emit(v); err != nil {
				return err
			}
		}
		return nil
	}
}

// sourceFunc emits n values produced by gen(i).
func sourceFunc[T any](n int, gen func(i int) T) Source[T] {
	return func(_ context.Context, emit Emit[T]) error {
		for i := 0; i < n; i++ {
			if err := emit(gen(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

// collect runs a graph and gathers all outputs into a slice, in emission
// order.
func collect[In, Out any](ctx context.Context, src Source[In], node Node[In, Out]) ([]Out, error) {
	var out []Out
	err := Run(ctx, src, node, func(v Out) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// oneStep builds a feedback farm of n workers that apply the pure 1:1
// function f to each task and complete it in one step.
func oneStep[T any](n int, f func(T) (T, error), opts ...Option) *FarmFeedback[T, T] {
	return NewFarmFeedback(n, func(int) FeedbackWorker[T, T] {
		return FeedbackWorkerFunc[T, T](func(_ context.Context, task T, emit Emit[T]) (*T, error) {
			v, err := f(task)
			if err != nil {
				return nil, err
			}
			return nil, emit(v)
		})
	}, opts...)
}

// laneQueue is a TaskQueue that dispatches round-robin across v%len(lanes)
// lanes, FIFO within a lane: the shape of the serve pool's fair queue.
type laneQueue struct {
	lanes [][]int
	next  int
	n     int
}

func (q *laneQueue) Push(v int) {
	l := v % len(q.lanes)
	q.lanes[l] = append(q.lanes[l], v)
	q.n++
}

func (q *laneQueue) Pop() (int, bool) {
	for i := range q.lanes {
		l := (q.next + i) % len(q.lanes)
		if len(q.lanes[l]) > 0 {
			v := q.lanes[l][0]
			q.lanes[l] = q.lanes[l][1:]
			q.next = l + 1
			q.n--
			return v, true
		}
	}
	return 0, false
}

func (q *laneQueue) Len() int { return q.n }

// farmPolicies lists the dispatch paths of the feedback farm, each built
// around the same 1:1 function: on-demand with its default queue depth, a
// deep queue, and a round-robin TaskQueue (the rendezvous path a pluggable
// queue selects).
func farmPolicies() []struct {
	name  string
	build func(n int, f func(int) (int, error)) Node[int, int]
} {
	return []struct {
		name  string
		build func(n int, f func(int) (int, error)) Node[int, int]
	}{
		{"on-demand", func(n int, f func(int) (int, error)) Node[int, int] {
			return oneStep(n, f)
		}},
		{"round-robin", func(n int, f func(int) (int, error)) Node[int, int] {
			farm := oneStep(n, f)
			farm.SetTaskQueue(&laneQueue{lanes: make([][]int, 4)})
			return farm
		}},
		{"on-demand-deep", func(n int, f func(int) (int, error)) Node[int, int] {
			return oneStep(n, f, WithQueueDepth(16))
		}},
	}
}

func TestFarmAllPoliciesCompleteness(t *testing.T) {
	const n = 500
	for _, tc := range farmPolicies() {
		t.Run(tc.name, func(t *testing.T) {
			farm := tc.build(4, func(v int) (int, error) { return v * 3, nil })
			got, err := collect(context.Background(), sourceSlice(ints(n)), farm)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("len = %d, want %d", len(got), n)
			}
			sort.Ints(got)
			for i, v := range got {
				if v != 3*i {
					t.Fatalf("sorted got[%d] = %d, want %d", i, v, 3*i)
				}
			}
		})
	}
}

func TestFarmWorkerError(t *testing.T) {
	boom := errors.New("worker boom")
	for _, tc := range farmPolicies() {
		t.Run(tc.name, func(t *testing.T) {
			farm := tc.build(3, func(v int) (int, error) {
				if v == 42 {
					return 0, boom
				}
				return v, nil
			})
			_, err := collect(context.Background(), sourceSlice(ints(200)), farm)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
		})
	}
}

func TestFarmContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	farm := oneStep(2, func(v int) (int, error) { return v, nil })
	n := 0
	err := Run(ctx, sourceFunc(1_000_000, func(i int) int { return i }), farm, func(int) error {
		n++
		if n == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFarmSingleWorkerDegeneratesToSequential(t *testing.T) {
	var order []int
	farm := oneStep(1, func(v int) (int, error) { return v, nil })
	err := Run(context.Background(), sourceSlice(ints(100)), farm, func(v int) error {
		order = append(order, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("len = %d, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker farm reordered: got[%d]=%d", i, v)
		}
	}
}

func TestFarmProperty_NoLossNoDuplication(t *testing.T) {
	f := func(values []int32, workers uint8) bool {
		w := int(workers%7) + 1
		farm := oneStep(w, func(v int32) (int32, error) { return v, nil })
		got, err := collect(context.Background(), sourceSlice(values), farm)
		if err != nil || len(got) != len(values) {
			return false
		}
		// Workers finish in any order: compare as multisets.
		want := append([]int32(nil), values...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFarmFeedbackCountdown(t *testing.T) {
	// Each task is a countdown: worker decrements and feeds back until zero,
	// emitting one output at zero. Exercises termination with in-flight
	// rescheduled tasks.
	farm := NewFarmFeedback(4, func(int) FeedbackWorker[int, string] {
		return FeedbackWorkerFunc[int, string](func(_ context.Context, task int, emit Emit[string]) (*int, error) {
			if task == 0 {
				return nil, emit("done")
			}
			next := task - 1
			return &next, nil
		})
	})
	got, err := collect(context.Background(), sourceSlice([]int{3, 0, 5, 1, 7}), farm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("outputs = %d, want 5 (one per task)", len(got))
	}
}

func TestFarmFeedbackEmitsDuringSteps(t *testing.T) {
	// Worker emits a sample at every step, like a simulation engine
	// emitting per-quantum results. Total outputs = sum of (task+1).
	farm := NewFarmFeedback(3, func(int) FeedbackWorker[int, int] {
		return FeedbackWorkerFunc[int, int](func(_ context.Context, task int, emit Emit[int]) (*int, error) {
			if err := emit(task); err != nil {
				return nil, err
			}
			if task == 0 {
				return nil, nil
			}
			next := task - 1
			return &next, nil
		})
	})
	tasks := []int{2, 4, 0, 1}
	got, err := collect(context.Background(), sourceSlice(tasks), farm)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range tasks {
		want += v + 1
	}
	if len(got) != want {
		t.Fatalf("outputs = %d, want %d", len(got), want)
	}
}

func TestFarmFeedbackError(t *testing.T) {
	boom := errors.New("feedback boom")
	farm := NewFarmFeedback(2, func(int) FeedbackWorker[int, int] {
		return FeedbackWorkerFunc[int, int](func(_ context.Context, task int, _ Emit[int]) (*int, error) {
			if task == 13 {
				return nil, boom
			}
			if task > 20 {
				next := task - 1
				return &next, nil
			}
			return nil, nil
		})
	})
	_, err := collect(context.Background(), sourceSlice(ints(50)), farm)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestFarmFeedbackProperty_OneCompletionPerTask(t *testing.T) {
	f := func(steps []uint8, workers uint8) bool {
		w := int(workers%5) + 1
		tasks := make([]int, len(steps))
		for i, s := range steps {
			tasks[i] = int(s % 16)
		}
		var completions atomic.Int64
		farm := NewFarmFeedback(w, func(int) FeedbackWorker[int, struct{}] {
			return FeedbackWorkerFunc[int, struct{}](func(_ context.Context, task int, _ Emit[struct{}]) (*int, error) {
				if task == 0 {
					completions.Add(1)
					return nil, nil
				}
				next := task - 1
				return &next, nil
			})
		})
		_, err := collect(context.Background(), sourceSlice(tasks), farm)
		return err == nil && completions.Load() == int64(len(tasks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
