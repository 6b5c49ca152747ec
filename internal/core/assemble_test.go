package core

import (
	"fmt"
	"reflect"
	"testing"

	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/window"
)

// syntheticState is trajectory i's state at cut k: the counts of
// syntheticWindow, extended to any cut index.
func syntheticState(k, i, ns int) []int64 {
	row := make([]int64, ns)
	for s := range row {
		row[s] = int64((i%2)*50+i) + int64(10*((k+i+s)%8)) + int64(k%5)
	}
	return row
}

// streamWindows runs cuts [startCut, nCuts) of an nTraj-trajectory ensemble
// through the real aligner and slider (resumed at startCut, trailing flush
// included) and returns deep copies of the windows they emit.
func streamWindows(t *testing.T, nTraj, ns, size, step, startCut, nCuts int) []window.Window {
	t.Helper()
	stream, err := window.NewStreamAt(nTraj, size, step, startCut)
	if err != nil {
		t.Fatal(err)
	}
	var out []window.Window
	keep := func(w window.Window) error {
		out = append(out, new(window.CopyBuffer).Capture(w))
		return nil
	}
	for k := startCut; k < nCuts; k++ {
		for i := 0; i < nTraj; i++ {
			s := sim.Sample{Traj: i, Index: k, Time: float64(k) * 0.5, State: syntheticState(k, i, ns)}
			if err := stream.Push(s, keep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stream.Close(keep); err != nil {
		t.Fatal(err)
	}
	return out
}

// gappedWindows builds what no slider emits: windows further apart than
// they are long (step > size), so that cuts fall between them.
func gappedWindows(nTraj, ns, size, step, nCuts int) []window.Window {
	var out []window.Window
	for start := 0; start < nCuts; start += step {
		w := window.Window{Start: start}
		for k := start; k < min(start+size, nCuts); k++ {
			states := make([][]int64, nTraj)
			for i := range states {
				states[i] = syntheticState(k, i, ns)
			}
			w.Cuts = append(w.Cuts, window.Cut{Index: k, Time: float64(k) * 0.5, States: states})
		}
		out = append(out, w)
	}
	return out
}

// TestAssembledStreamMatchesFullAnalysis pins the incremental path against
// the full one: windows analysed with only their fresh cuts summarised —
// out of window order, alternating between two engines — and then
// assembled in order are DeepEqual to AnalyseWindowInto on every window,
// and for step ≤ size every cut of the stream was summarised exactly once.
func TestAssembledStreamMatchesFullAnalysis(t *testing.T) {
	const nTraj, ns, size = 12, 3, 16
	cfg := analyseCfg()
	cfg.WindowSize = size
	cases := []struct {
		name            string
		step            int
		startCut, nCuts int
	}{
		{"step1", 1, 0, 41},
		{"step1/short-stream-is-one-partial-window", 1, 0, 10},
		{"step1/resumed", 1, 5, 41},
		{"step3/trailing-partial", 3, 0, 41},
		{"step3/resumed", 3, 9, 41},
		{"step=size/trailing-partial", size, 0, 41},
		{"step=size/resumed", size, 16, 57},
		{"step>size", size + 4, 0, 70},
	}
	for _, tc := range cases {
		for _, species := range [][]int{{0, 1, 2}, {2, 0}} {
			t.Run(fmt.Sprintf("%s/species%v", tc.name, species), func(t *testing.T) {
				var wins []window.Window
				if tc.step > size {
					wins = gappedWindows(nTraj, ns, size, tc.step, tc.nCuts)
				} else {
					wins = streamWindows(t, nTraj, ns, size, tc.step, tc.startCut, tc.nCuts)
				}
				if want := window.WindowCount(tc.nCuts-tc.startCut, size, min(tc.step, size)); tc.step <= size && len(wins) != want {
					t.Fatalf("stream emitted %d windows, want %d", len(wins), want)
				}

				// Submission side: the frontier, in window order.
				var frontier CutFrontier
				fresh := make([]int, len(wins))
				summarised := 0
				for i, w := range wins {
					fresh[i] = frontier.Fresh(w.Start, len(w.Cuts))
					summarised += fresh[i]
				}
				if fresh[0] != len(wins[0].Cuts) {
					t.Fatalf("first window summarises %d of its %d cuts, want all", fresh[0], len(wins[0].Cuts))
				}
				if tc.step <= size && summarised != tc.nCuts-tc.startCut {
					t.Fatalf("%d cut summaries for %d cuts, want one each", summarised, tc.nCuts-tc.startCut)
				}
				if tc.step >= size {
					for i, w := range wins {
						if fresh[i] != len(w.Cuts) {
							t.Fatalf("window %d summarises %d of %d cuts, want all (no overlap)", i, fresh[i], len(w.Cuts))
						}
					}
				}

				// Farm side: odd windows first, then even, on two engines.
				engines := []*stats.Engine{stats.NewEngine(), stats.NewEngine()}
				got := make([]WindowStat, len(wins))
				order := make([]int, 0, len(wins))
				for i := 1; i < len(wins); i += 2 {
					order = append(order, i)
				}
				for i := 0; i < len(wins); i += 2 {
					order = append(order, i)
				}
				for n, i := range order {
					if err := AnalyseWindowFresh(&got[i], engines[n%2], wins[i], species, cfg, fresh[i]); err != nil {
						t.Fatal(err)
					}
				}

				// Behind the ordered gather.
				asm := NewAssembler(size)
				ref := stats.NewEngine()
				for i, w := range wins {
					asm.Assemble(&got[i], fresh[i])
					var want WindowStat
					if err := AnalyseWindowInto(&want, ref, w, species, cfg); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("window %d (start %d, %d cuts, %d fresh):\n got  %+v\n want %+v", i, w.Start, len(w.Cuts), fresh[i], got[i], want)
					}
				}
			})
		}
	}
}

func TestAnalyseWindowFreshRejectsBadCount(t *testing.T) {
	w := syntheticWindow(4, 3, 1)
	var ws WindowStat
	for _, fresh := range []int{-1, 5} {
		if err := AnalyseWindowFresh(&ws, stats.NewEngine(), w, []int{0}, analyseCfg(), fresh); err == nil {
			t.Fatalf("fresh = %d of 4 cuts accepted", fresh)
		}
	}
}

// TestRunAssemblesSlidingWindows runs the batch pipeline (core.Run,
// several stat engines, the assembler behind them) on sliding windows and
// checks every displayed window against the full analysis of the same cuts.
func TestRunAssemblesSlidingWindows(t *testing.T) {
	factory, err := FactoryFor(ModelRef{Name: "sir", Omega: 50})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Factory: factory, Trajectories: 8, End: 10, Period: 0.25,
		SimWorkers: 2, StatEngines: 3, WindowSize: 8, WindowStep: 2,
		KMeansK: 2, PeriodHalfWin: 1, BaseSeed: 11,
	}
	var got []WindowStat
	if _, err := Run(t.Context(), cfg, func(ws WindowStat) error {
		got = append(got, ws)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Reference: the same samples, every window analysed in full.
	ncfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	species, err := ResolveSpecies(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := window.NewStream(cfg.Trajectories, cfg.WindowSize, cfg.WindowStep)
	if err != nil {
		t.Fatal(err)
	}
	var want []WindowStat
	eng := stats.NewEngine()
	analyse := func(w window.Window) error {
		var ws WindowStat
		err := AnalyseWindowInto(&ws, eng, w, species, ncfg)
		want = append(want, ws)
		return err
	}
	for i := 0; i < cfg.Trajectories; i++ {
		task, err := NewTrajectoryTask(ncfg, i)
		if err != nil {
			t.Fatal(err)
		}
		for !task.Done() {
			if err := task.RunQuantum(func(s sim.Sample) error { return stream.Push(s, analyse) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stream.Close(analyse); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("core.Run displayed %d windows that differ from the %d fully analysed ones", len(got), len(want))
	}
}
