package window

import (
	"math/rand"
	"testing"

	"cwcflow/internal/sim"
)

// pushShuffled feeds nTraj*cuts samples to the stream in a trajectory-
// interleaved but per-trajectory-ordered shuffle, as the farm produces them.
func pushShuffled(t *testing.T, st *Stream, nTraj, cuts int, rng *rand.Rand) []Window {
	t.Helper()
	next := make([]int, nTraj)
	var wins []Window
	remaining := nTraj * cuts
	for remaining > 0 {
		traj := rng.Intn(nTraj)
		if next[traj] >= cuts {
			continue
		}
		s := sim.Sample{
			Traj:  traj,
			Index: next[traj],
			Time:  float64(next[traj]) * 0.5,
			State: []int64{int64(traj*1000 + next[traj])},
		}
		next[traj]++
		remaining--
		if err := st.Push(s, func(w Window) error {
			wins = append(wins, w)
			return nil
		}); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	if err := st.Close(func(w Window) error {
		wins = append(wins, w)
		return nil
	}); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return wins
}

func TestStreamMatchesWindowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ nTraj, cuts, size, step int }{
		{4, 32, 16, 16},
		{4, 33, 16, 16},
		{3, 10, 16, 16},
		{5, 40, 8, 4},
		{2, 41, 8, 4},
		{1, 1, 1, 1},
		{8, 7, 8, 8},
	}
	for _, c := range cases {
		st, err := NewStream(c.nTraj, c.size, c.step)
		if err != nil {
			t.Fatalf("NewStream(%v): %v", c, err)
		}
		wins := pushShuffled(t, st, c.nTraj, c.cuts, rng)
		want := WindowCount(c.cuts, c.size, c.step)
		if len(wins) != want {
			t.Errorf("case %+v: got %d windows, WindowCount says %d", c, len(wins), want)
		}
		if st.Cuts() != c.cuts {
			t.Errorf("case %+v: Cuts() = %d, want %d", c, st.Cuts(), c.cuts)
		}
		// Windows must be contiguous, in order, with the configured step.
		for i, w := range wins {
			if want := i * c.step; w.Start != want {
				t.Errorf("case %+v: window %d starts at cut %d, want %d", c, i, w.Start, want)
			}
			for k, cut := range w.Cuts {
				if cut.Index != w.Start+k {
					t.Errorf("case %+v: window %d cut %d has index %d", c, i, k, cut.Index)
				}
			}
		}
	}
}

func TestStreamDetectsIncompleteEnsemble(t *testing.T) {
	st, err := NewStream(2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Only trajectory 0 delivers samples.
	for i := 0; i < 3; i++ {
		s := sim.Sample{Traj: 0, Index: i, Time: float64(i), State: []int64{1}}
		if err := st.Push(s, func(Window) error { return nil }); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	if err := st.Close(func(Window) error { return nil }); err == nil {
		t.Fatal("Close accepted a stream with missing trajectory samples")
	}
}
