// The bench-regression gate: a small set of pinned hot-path benchmarks
// (SSA stepping, quantum batching, window analysis in full and as one of a
// stream of overlapping windows) measured without the testing framework,
// compared against a committed BENCH_BASELINE.json.
// Machine-speed differences between the committing host and the CI runner
// are normalised out by a fixed arithmetic calibration workload measured
// alongside the benchmarks: ns/op comparisons use the calibration-scaled
// ratio, while allocs/op — machine-independent — compare exactly.
package bench

import (
	"fmt"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/gillespie"
	"cwcflow/internal/models"
	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
)

// BenchPoint is one benchmark's measurement.
type BenchPoint struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// BaselineReport is the schema of BENCH_BASELINE.json.
type BaselineReport struct {
	// CalibrationNs is the runtime of a fixed pure-arithmetic workload on
	// the measuring host — the machine-speed yardstick that lets a
	// baseline committed from one machine gate regressions on another.
	CalibrationNs float64               `json:"calibration_ns"`
	Benchmarks    map[string]BenchPoint `json:"benchmarks"`
}

// measureNs runs f repeatedly for at least minDur and returns ns per call.
func measureNs(minDur time.Duration, f func()) float64 {
	f() // warm up
	iters := 0
	start := time.Now()
	for time.Since(start) < minDur {
		for i := 0; i < 64; i++ {
			f()
		}
		iters += 64
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// calibration is the fixed workload: 1M xorshift rounds. Pure integer
// arithmetic, no memory traffic, so it tracks single-core speed.
func calibration() float64 {
	var sink uint64
	ns := measureNs(200*time.Millisecond, func() {
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	})
	_ = sink
	return ns
}

// MeasureBaseline runs the pinned hot-path benchmarks.
func MeasureBaseline() (*BaselineReport, error) {
	rep := &BaselineReport{Benchmarks: make(map[string]BenchPoint)}
	rep.CalibrationNs = calibration()

	// direct_step: one SSA step of the compiled Neurospora network via the
	// Direct method with dependency-driven partial propensity updates.
	{
		d, err := gillespie.NewDirect(models.Neurospora(100), 1)
		if err != nil {
			return nil, err
		}
		var pt BenchPoint
		pt.NsPerOp = measureNs(300*time.Millisecond, func() { d.Step() })
		pt.AllocsPerOp = allocsPerRun(2000, func() { d.Step() })
		rep.Benchmarks["direct_step"] = pt
	}

	// quantum_batch: one simulation quantum batched into a reused arena
	// batch (the serve pool's per-quantum unit of work).
	{
		s := &pr3Sim{dt: 0.25, rng: 12345}
		task, err := sim.NewTask(0, s, 1e12, 4, 0.25)
		if err != nil {
			return nil, err
		}
		b := sim.GetBatch()
		defer b.Release()
		run := func() {
			b.Reset()
			if err := task.RunQuantumBatch(b); err != nil {
				panic(err)
			}
		}
		var pt BenchPoint
		pt.NsPerOp = measureNs(300*time.Millisecond, run)
		pt.AllocsPerOp = allocsPerRun(500, run)
		rep.Benchmarks["quantum_batch"] = pt
	}

	// analyse_window: the stat-engine hot path on a 16×256×3 window with
	// k-means and period detection, on reused engine scratch.
	{
		w := pr3Window(16, 256, 3)
		species := []int{0, 1, 2}
		cfg := core.Config{
			Factory:       func(int, int64) (sim.Simulator, error) { return nil, nil },
			Trajectories:  1,
			End:           1,
			Period:        1,
			KMeansK:       4,
			PeriodHalfWin: 2,
			BaseSeed:      7,
		}
		eng := stats.NewEngine()
		var ws core.WindowStat
		run := func() {
			if err := core.AnalyseWindowInto(&ws, eng, w, species, cfg); err != nil {
				panic(err)
			}
		}
		var pt BenchPoint
		pt.NsPerOp = measureNs(300*time.Millisecond, run)
		pt.AllocsPerOp = allocsPerRun(50, run)
		rep.Benchmarks["analyse_window"] = pt

		// analyse_window_overlap: the same window as one of a step-1
		// stream — the stat farm's path for sliding windows: one fresh cut
		// summarised, the other fifteen assembled from the windows before.
		asm := core.NewAssembler(len(w.Cuts))
		slide := func() {
			fresh := 1
			if w.Start == 0 {
				fresh = len(w.Cuts)
			}
			if err := core.AnalyseWindowFresh(&ws, eng, w, species, cfg, fresh); err != nil {
				panic(err)
			}
			asm.Assemble(&ws, fresh)
			w.Start++
		}
		pt.NsPerOp = measureNs(300*time.Millisecond, slide)
		pt.AllocsPerOp = allocsPerRun(50, slide)
		rep.Benchmarks["analyse_window_overlap"] = pt
	}
	return rep, nil
}

// CompareBaseline checks current against baseline: a benchmark regresses
// when its calibration-normalised ns/op exceeds the baseline by more than
// nsTol (fraction, e.g. 0.20), or when its allocs/op increase at all.
// It returns one message per violation (empty = gate passes).
func CompareBaseline(baseline, current *BaselineReport, nsTol float64) []string {
	var violations []string
	scale := 1.0
	if baseline.CalibrationNs > 0 && current.CalibrationNs > 0 {
		scale = current.CalibrationNs / baseline.CalibrationNs
	}
	for name, base := range baseline.Benchmarks {
		cur, ok := current.Benchmarks[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: benchmark missing from current run", name))
			continue
		}
		normNs := cur.NsPerOp / scale
		if base.NsPerOp > 0 && normNs > base.NsPerOp*(1+nsTol) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op (machine-normalised %.0f) vs baseline %.0f ns/op: +%.1f%% exceeds the %.0f%% budget",
				name, cur.NsPerOp, normNs, base.NsPerOp,
				(normNs/base.NsPerOp-1)*100, nsTol*100))
		}
		// Allocation counts are machine-independent: any increase fails.
		if cur.AllocsPerOp > base.AllocsPerOp+0.5 {
			violations = append(violations, fmt.Sprintf(
				"%s: %.1f allocs/op vs baseline %.1f: allocation regressions are not allowed",
				name, cur.AllocsPerOp, base.AllocsPerOp))
		}
	}
	return violations
}
