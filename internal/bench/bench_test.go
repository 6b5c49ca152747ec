package bench

import (
	"strings"
	"testing"
)

// The tests below are the acceptance criteria of docs/ARCHITECTURE.md's
// "The evaluation substitute" section: they assert the *shape* of every
// reproduced figure/table (who wins, where curves bend), not absolute
// numbers. Scaled-down workloads keep them fast; the
// full-parameter runs live in cmd/cwc-bench and bench_test.go at the
// module root.

var testScale = Scale{Quanta: 12}

func TestExperimentTableRendering(t *testing.T) {
	e := &Experiment{ID: "x", Title: "t", XLabel: "n", YLabel: "y"}
	e.Add("a", 1, 1.5)
	e.Add("a", 2, 3)
	e.Add("b", 1, 2)
	var sb strings.Builder
	if err := e.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# x — t", "a", "b", "1.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := e.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "n,a,b\n") {
		t.Fatalf("csv header wrong: %q", sb.String())
	}
	if v, ok := e.Lookup("a", 2); !ok || v != 3 {
		t.Fatalf("Lookup = (%g, %v)", v, ok)
	}
	if _, ok := e.Lookup("zz", 1); ok {
		t.Fatal("Lookup of unknown series succeeded")
	}
}

func TestFig3Shape(t *testing.T) {
	one, err := Fig3(1, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Fig3(4, 1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	get := func(e *Experiment, label string, x float64) float64 {
		t.Helper()
		v, ok := e.Lookup(label, x)
		if !ok {
			t.Fatalf("missing point %s@%g", label, x)
		}
		return v
	}
	// With one stat engine the large ensemble saturates: its speedup at
	// 32 workers is visibly below the small ensemble's.
	s128 := get(one, "128 trajectories", 32)
	s1024 := get(one, "1024 trajectories", 32)
	if s1024 >= s128-2 {
		t.Fatalf("1-stat-engine: 1024-traj speedup %.1f not clearly below 128-traj %.1f", s1024, s128)
	}
	if s1024 > 24 {
		t.Fatalf("1-stat-engine 1024-traj speedup %.1f: expected saturation below 24", s1024)
	}
	// With four stat engines everything is near ideal.
	for _, label := range []string{"128 trajectories", "512 trajectories", "1024 trajectories"} {
		s := get(four, label, 32)
		if s < 26 {
			t.Fatalf("4-stat-engines %s speedup %.1f, want near-ideal (>= 26)", label, s)
		}
	}
	// And four engines never hurt.
	if get(four, "1024 trajectories", 32) <= s1024 {
		t.Fatal("4 stat engines did not beat 1 on the large ensemble")
	}
	// Low worker counts are near-ideal everywhere.
	if v := get(one, "512 trajectories", 4); v < 3.8 {
		t.Fatalf("4-worker speedup %.2f, want ~4", v)
	}
}

func TestFig4Shape(t *testing.T) {
	top, bottom, err := Fig4(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"2 cores per host", "4 cores per host"} {
		s1, ok1 := top.Lookup(label, 1)
		s8, ok8 := top.Lookup(label, 8)
		if !ok1 || !ok8 {
			t.Fatalf("%s: missing endpoints", label)
		}
		if s1 != 1 {
			t.Fatalf("%s: speedup(1 host) = %g, want 1", label, s1)
		}
		if s8 < 4.5 || s8 > 8.01 {
			t.Fatalf("%s: speedup(8 hosts) = %.2f, want in (4.5, 8]", label, s8)
		}
	}
	// On the aggregated-core axis, 16 cores from 4-core hosts beat 16
	// cores used as 1-worker baselines proportionally (sanity: both
	// series grow with cores).
	for _, label := range []string{"2 cores per host", "4 cores per host"} {
		var prev float64
		for _, s := range bottom.Series {
			if s.Label != label {
				continue
			}
			for _, p := range s.Points {
				if p.Y < prev-1.5 {
					t.Fatalf("%s: speedup dropped sharply at %g cores: %.2f after %.2f", label, p.X, p.Y, prev)
				}
				prev = p.Y
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	e, err := Fig5(1, Scale{Quanta: 144})
	if err != nil {
		t.Fatal(err)
	}
	var prevTime float64
	for cores := 1; cores <= 4; cores++ {
		tm, ok := e.Lookup("exec time (min)", float64(cores))
		if !ok {
			t.Fatalf("missing time at %d cores", cores)
		}
		if cores > 1 && tm >= prevTime {
			t.Fatalf("exec time not monotone: %d cores %.1f after %.1f", cores, tm, prevTime)
		}
		prevTime = tm
	}
	sp, _ := e.Lookup("speedup", 4)
	if sp < 2.9 || sp > 3.6 {
		t.Fatalf("4-core speedup %.2f, want sub-linear in [2.9, 3.6] (paper: 3.15)", sp)
	}
}

func TestFig6Shape(t *testing.T) {
	top, err := Fig6Top(1, Scale{Quanta: 144})
	if err != nil {
		t.Fatal(err)
	}
	sp32, ok := top.Lookup("speedup", 32)
	if !ok {
		t.Fatal("missing 32-core point")
	}
	if sp32 < 22 || sp32 > 32 {
		t.Fatalf("32-vcore speedup %.1f, want ~28 (22..32)", sp32)
	}

	bottom, err := Fig6Bottom(1, Scale{Quanta: 144})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, x := range []float64{4, 32, 48, 64, 96} {
		sp, ok := bottom.Lookup("speedup", x)
		if !ok {
			t.Fatalf("missing point at %g cores", x)
		}
		if sp < prev {
			t.Fatalf("heterogeneous speedup not monotone at %g cores: %.1f after %.1f", x, sp, prev)
		}
		prev = sp
	}
	if prev < 50 || prev > 75 {
		t.Fatalf("96-core gain %.1f, want ~62 (50..75)", prev)
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(1, Scale{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	byN := map[int]Table1Row{}
	for _, r := range res.Rows {
		byN[r.NSims] = r
	}
	// CPU scales linearly with N and is quantum-insensitive (<15%).
	r128, r2048 := byN[128], byN[2048]
	if ratio := r2048.CPUQ10 / r128.CPUQ10; ratio < 12 || ratio > 20 {
		t.Fatalf("CPU scaling 128→2048 = %.1fx, want ~16x", ratio)
	}
	for _, r := range res.Rows {
		if rel := abs(r.CPUQ10-r.CPUQ1) / r.CPUQ10; rel > 0.15 {
			t.Fatalf("N=%d: CPU quantum sensitivity %.0f%%, want < 15%%", r.NSims, rel*100)
		}
	}
	// GPU: slower than CPU on the small ensemble, ≥2x faster on the
	// largest (the paper's headline).
	if r128.GPUQ10 <= r128.CPUQ10 {
		t.Fatalf("N=128: GPU (%.0f) should lose to CPU (%.0f)", r128.GPUQ10, r128.CPUQ10)
	}
	if best := min(r2048.GPUQ10, r2048.GPUQ1); r2048.CPUQ10/best < 2 {
		t.Fatalf("N=2048: GPU advantage %.2fx, want >= 2x", r2048.CPUQ10/best)
	}
	// GPU quantum sensitivity flips sign: small quanta hurt the small
	// ensemble (barrier tax) and help the large one (re-balancing).
	if r128.GPUQ1 <= r128.GPUQ10 {
		t.Fatalf("N=128: GPU Q/τ=1 (%.0f) should be slower than Q/τ=10 (%.0f)", r128.GPUQ1, r128.GPUQ10)
	}
	if r2048.GPUQ1 >= r2048.GPUQ10 {
		t.Fatalf("N=2048: GPU Q/τ=1 (%.0f) should beat Q/τ=10 (%.0f)", r2048.GPUQ1, r2048.GPUQ10)
	}
	// Rendering.
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2048") {
		t.Fatal("table rendering lost rows")
	}
}

func TestScaleHelpers(t *testing.T) {
	sc := Scale{Quanta: 5, MaxTraj: 100}
	if sc.quanta(30) != 5 || (Scale{}).quanta(30) != 30 {
		t.Fatal("quanta scaling wrong")
	}
	if sc.traj(1024) != 100 || sc.traj(64) != 64 {
		t.Fatal("traj scaling wrong")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Fig3(1, 7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(1, 7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	av, _ := a.Lookup("512 trajectories", 16)
	bv, _ := b.Lookup("512 trajectories", 16)
	if av != bv {
		t.Fatalf("same seed, different results: %g vs %g", av, bv)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig3(4, 1, Scale{Quanta: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table1(1, Scale{MaxTraj: 512}); err != nil {
			b.Fatal(err)
		}
	}
}
