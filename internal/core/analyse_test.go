package core

import (
	"testing"

	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/window"
)

// syntheticWindow builds a window of nCuts cuts over nTraj trajectories
// and ns species with varied, deterministic counts (so k-means and period
// detection have real work to do).
func syntheticWindow(nCuts, nTraj, ns int) window.Window {
	w := window.Window{Start: 0, Cuts: make([]window.Cut, nCuts)}
	for k := 0; k < nCuts; k++ {
		states := make([][]int64, nTraj)
		for i := range states {
			row := make([]int64, ns)
			for s := range row {
				// A mix of oscillation (period ~8 cuts) and per-trajectory
				// offsets: two natural clusters (even/odd trajectories).
				base := int64((i%2)*50 + i)
				osc := int64(10 * ((k + i + s) % 8))
				row[s] = base + osc
			}
			states[i] = row
		}
		w.Cuts[k] = window.Cut{Index: k, Time: float64(k) * 0.5, States: states}
	}
	return w
}

func analyseCfg() Config {
	return Config{
		Factory:       func(int, int64) (sim.Simulator, error) { return nil, nil },
		Trajectories:  1,
		End:           1,
		Period:        1,
		KMeansK:       2,
		PeriodHalfWin: 1,
		BaseSeed:      7,
	}
}

// TestAnalyseWindowAllocationFree pins the tentpole property of the
// statistical engine: with a reused WindowStat and a warmed stats.Engine,
// analysing a window of stable shape — moments, medians, period detection
// and k-means all enabled — performs zero allocations, in the full form and
// in the incremental one (one fresh cut per window, assembled in order).
func TestAnalyseWindowAllocationFree(t *testing.T) {
	w := syntheticWindow(16, 64, 3)
	species := []int{0, 1, 2}
	cfg := analyseCfg()
	eng := stats.NewEngine()
	var ws WindowStat
	// Warm up: grows every buffer to the steady-state shape.
	if err := AnalyseWindowInto(&ws, eng, w, species, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := AnalyseWindowInto(&ws, eng, w, species, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AnalyseWindowInto allocates %.1f times per window in steady state, want 0", allocs)
	}

	// The sliding stream: the same cuts one step further on each time. The
	// warm-up takes the assembler's ring once round.
	asm := NewAssembler(len(w.Cuts))
	slide := func() {
		fresh := 1
		if w.Start == 0 {
			fresh = len(w.Cuts)
		}
		if err := AnalyseWindowFresh(&ws, eng, w, species, cfg, fresh); err != nil {
			t.Fatal(err)
		}
		asm.Assemble(&ws, fresh)
		w.Start++
	}
	for i := 0; i <= len(w.Cuts); i++ {
		slide()
	}
	if allocs := testing.AllocsPerRun(50, slide); allocs != 0 {
		t.Fatalf("AnalyseWindowFresh + Assemble allocate %.1f times per window in steady state, want 0", allocs)
	}
}

// TestAnalyseWindowIntoMatchesAnalyseWindow pins that a reused engine and
// WindowStat compute exactly what a fresh engine and WindowStat compute —
// which is also what makes a farm of engines deterministic regardless of
// its width.
func TestAnalyseWindowIntoMatchesAnalyseWindow(t *testing.T) {
	w := syntheticWindow(16, 32, 2)
	species := []int{0, 1}
	cfg := analyseCfg()

	var ref WindowStat
	if err := AnalyseWindowInto(&ref, stats.NewEngine(), w, species, cfg); err != nil {
		t.Fatal(err)
	}
	eng := stats.NewEngine()
	var got WindowStat
	// Run twice through the same engine/ws to cover the reuse path.
	for run := 0; run < 2; run++ {
		if err := AnalyseWindowInto(&got, eng, w, species, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got.Start != ref.Start || got.NumCuts != ref.NumCuts || got.TimeLo != ref.TimeLo || got.TimeHi != ref.TimeHi {
		t.Fatalf("header mismatch: got %+v, want %+v", got, ref)
	}
	for k := range ref.PerCut {
		for s := range ref.PerCut[k] {
			if got.PerCut[k][s] != ref.PerCut[k][s] {
				t.Fatalf("PerCut[%d][%d] = %+v, want %+v", k, s, got.PerCut[k][s], ref.PerCut[k][s])
			}
			if got.Median[k][s] != ref.Median[k][s] {
				t.Fatalf("Median[%d][%d] = %g, want %g", k, s, got.Median[k][s], ref.Median[k][s])
			}
		}
	}
	if len(got.Period) != len(ref.Period) {
		t.Fatalf("period stats = %d, want %d", len(got.Period), len(ref.Period))
	}
	for s := range ref.Period {
		if got.Period[s] != ref.Period[s] {
			t.Fatalf("Period[%d] = %+v, want %+v", s, got.Period[s], ref.Period[s])
		}
	}
	if (got.KMeans == nil) != (ref.KMeans == nil) {
		t.Fatal("k-means presence mismatch")
	}
	if got.KMeans.Inertia != ref.KMeans.Inertia || got.KMeans.Iterations != ref.KMeans.Iterations {
		t.Fatalf("k-means = %+v, want %+v", got.KMeans, ref.KMeans)
	}
	for i := range ref.KMeans.Assign {
		if got.KMeans.Assign[i] != ref.KMeans.Assign[i] {
			t.Fatalf("k-means assign[%d] = %d, want %d", i, got.KMeans.Assign[i], ref.KMeans.Assign[i])
		}
	}
}

func BenchmarkAnalyseWindowInto(b *testing.B) {
	w := syntheticWindow(16, 256, 3)
	species := []int{0, 1, 2}
	cfg := analyseCfg()
	cfg.KMeansK = 4
	eng := stats.NewEngine()
	var ws WindowStat
	if err := AnalyseWindowInto(&ws, eng, w, species, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AnalyseWindowInto(&ws, eng, w, species, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
