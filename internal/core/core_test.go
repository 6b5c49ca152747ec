package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"cwcflow/internal/gillespie"
	"cwcflow/internal/gpu"
	"cwcflow/internal/models"
	"cwcflow/internal/sim"
)

// neuroFactory builds independent Neurospora engines.
func neuroFactory(omega float64) SimulatorFactory {
	sys := models.Neurospora(omega)
	return func(_ int, seed int64) (sim.Simulator, error) {
		return gillespie.NewDirect(sys, seed)
	}
}

func smallConfig() Config {
	return Config{
		Factory:      neuroFactory(20),
		Trajectories: 8,
		End:          12,
		Quantum:      2,
		Period:       0.5,
		SimWorkers:   3,
		StatEngines:  2,
		WindowSize:   8,
		WindowStep:   8,
		BaseSeed:     100,
	}
}

func TestRunProducesOrderedCompleteWindows(t *testing.T) {
	cfg := smallConfig()
	var got []WindowStat
	info, err := Run(context.Background(), cfg, func(ws WindowStat) error {
		got = append(got, ws)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 12/0.5 + 1 = 25 cuts → windows of 8: 3 full + 1 tail of 1.
	if info.Cuts != 25 {
		t.Fatalf("cuts = %d, want 25", info.Cuts)
	}
	if info.Windows != 4 {
		t.Fatalf("windows = %d, want 4", info.Windows)
	}
	if info.Samples != int64(25*cfg.Trajectories) {
		t.Fatalf("samples = %d, want %d", info.Samples, 25*cfg.Trajectories)
	}
	if info.Reactions == 0 {
		t.Fatal("no reactions recorded")
	}
	// Ordered gather: starts must be 0, 8, 16, 24.
	for i, ws := range got {
		if ws.Start != 8*i {
			t.Fatalf("window %d start = %d, want %d", i, ws.Start, 8*i)
		}
	}
	// Moments sanity: N = trajectories everywhere, means within min/max.
	for _, ws := range got {
		for k := 0; k < ws.NumCuts; k++ {
			for si := range ws.Species {
				m := ws.PerCut[k][si]
				if m.N != int64(cfg.Trajectories) {
					t.Fatalf("moment N = %d, want %d", m.N, cfg.Trajectories)
				}
				if m.Mean < m.Min-1e-9 || m.Mean > m.Max+1e-9 {
					t.Fatalf("mean %g outside [%g, %g]", m.Mean, m.Min, m.Max)
				}
				if med := ws.Median[k][si]; med < m.Min || med > m.Max {
					t.Fatalf("median %g outside [%g, %g]", med, m.Min, m.Max)
				}
			}
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := smallConfig()
	run := func() []WindowStat {
		var got []WindowStat
		if _, err := Run(context.Background(), cfg, func(ws WindowStat) error {
			got = append(got, ws)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("window counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for k := range a[i].PerCut {
			for si := range a[i].PerCut[k] {
				if a[i].PerCut[k][si] != b[i].PerCut[k][si] {
					t.Fatalf("window %d cut %d species %d: %+v vs %+v",
						i, k, si, a[i].PerCut[k][si], b[i].PerCut[k][si])
				}
			}
		}
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	// Results must not depend on the parallelism degree (same seeds, same
	// trajectories, deterministic analysis).
	base := smallConfig()
	ref := runMeans(t, base)
	for _, workers := range []int{1, 2, 8} {
		for _, engines := range []int{1, 4} {
			cfg := base
			cfg.SimWorkers = workers
			cfg.StatEngines = engines
			got := runMeans(t, cfg)
			if len(got) != len(ref) {
				t.Fatalf("workers=%d engines=%d: %d means, want %d", workers, engines, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d engines=%d: mean[%d] = %g, want %g", workers, engines, i, got[i], ref[i])
				}
			}
		}
	}
}

func runMeans(t *testing.T, cfg Config) []float64 {
	t.Helper()
	var means []float64
	if _, err := Run(context.Background(), cfg, func(ws WindowStat) error {
		for k := range ws.PerCut {
			means = append(means, ws.PerCut[k][0].Mean)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return means
}

func TestRunQuantumInvariance(t *testing.T) {
	// The simulation quantum is a scheduling knob: it must not change the
	// scientific results (paper: "quantum size negligibly affects
	// multi-core performance" — and never correctness).
	base := smallConfig()
	ref := runMeans(t, base)
	for _, q := range []float64{0.5, 1, 6, 100} {
		cfg := base
		cfg.Quantum = q
		got := runMeans(t, cfg)
		if len(got) != len(ref) {
			t.Fatalf("quantum=%g: %d means, want %d", q, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("quantum=%g: mean[%d] = %g, want %g", q, i, got[i], ref[i])
			}
		}
	}
}

func TestRunWithKMeansAndPeriod(t *testing.T) {
	cfg := smallConfig()
	cfg.End = 60
	cfg.Period = 0.5
	cfg.WindowSize = 121 // whole run in one window: covers ~2.5 periods
	cfg.WindowStep = 121
	cfg.KMeansK = 2
	cfg.PeriodHalfWin = 8
	cfg.Species = []int{models.NeuroM}
	var got []WindowStat
	if _, err := Run(context.Background(), cfg, func(ws WindowStat) error {
		got = append(got, ws)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("windows = %d, want 1", len(got))
	}
	ws := got[0]
	if ws.KMeans == nil {
		t.Fatal("k-means missing")
	}
	if len(ws.KMeans.Assign) != cfg.Trajectories {
		t.Fatalf("k-means assignments = %d, want %d", len(ws.KMeans.Assign), cfg.Trajectories)
	}
	if len(ws.Period) != 1 {
		t.Fatalf("period stats = %d, want 1", len(ws.Period))
	}
	p := ws.Period[0]
	if p.N == 0 {
		t.Fatal("no trajectory had a detectable period over 60h")
	}
	if p.Mean < 10 || p.Mean > 35 {
		t.Fatalf("mean period = %g h, want 10..35 (true ~21.5)", p.Mean)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("factory boom")
	cfg := smallConfig()
	n := 0
	cfg.Factory = func(traj int, seed int64) (sim.Simulator, error) {
		n++
		if n > 3 {
			return nil, boom
		}
		return gillespie.NewDirect(models.Neurospora(10), seed)
	}
	_, err := Run(context.Background(), cfg, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestRunDisplayError(t *testing.T) {
	boom := errors.New("display boom")
	cfg := smallConfig()
	_, err := Run(context.Background(), cfg, func(WindowStat) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestRunCancellation(t *testing.T) {
	cfg := smallConfig()
	cfg.End = 1e6 // effectively endless
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, cfg, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Factory = nil },
		func(c *Config) { c.Trajectories = 0 },
		func(c *Config) { c.End = 0 },
		func(c *Config) { c.Period = -1 },
		func(c *Config) { c.Species = []int{99} },
	}
	for i, mutate := range cases {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg, nil); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunGPUMatchesCPU(t *testing.T) {
	cfg := smallConfig()
	cpu := runMeans(t, cfg)

	dev, err := gpu.NewDevice(gpu.DeviceConfig{
		SMs: 2, CoresPerSM: 64, WarpSize: 32,
		LaunchOverhead: 1e-5, SecondsPerCost: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gpuMeans []float64
	info, ginfo, err := RunGPU(context.Background(), cfg, dev, func(ws WindowStat) error {
		for k := range ws.PerCut {
			gpuMeans = append(gpuMeans, ws.PerCut[k][0].Mean)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gpuMeans) != len(cpu) {
		t.Fatalf("gpu means = %d, want %d", len(gpuMeans), len(cpu))
	}
	for i := range cpu {
		if gpuMeans[i] != cpu[i] {
			t.Fatalf("gpu mean[%d] = %g, cpu %g — offloading changed results", i, gpuMeans[i], cpu[i])
		}
	}
	if ginfo.Launches < int(cfg.End/cfg.Quantum) {
		t.Fatalf("launches = %d, want >= %d", ginfo.Launches, int(cfg.End/cfg.Quantum))
	}
	if ginfo.SimTime <= 0 {
		t.Fatal("no simulated device time")
	}
	if ginfo.Utilization <= 0 || ginfo.Utilization > 1 {
		t.Fatalf("utilization = %g out of (0,1]", ginfo.Utilization)
	}
	// Uneven SSA trajectories must show real divergence.
	if ginfo.Utilization > 0.999 {
		t.Fatalf("utilization = %g: expected visible SIMT divergence", ginfo.Utilization)
	}
	if info.Cuts != 25 {
		t.Fatalf("gpu cuts = %d, want 25", info.Cuts)
	}
}

func TestGPUQuantumSensitivity(t *testing.T) {
	// Smaller quanta = more kernel launches (more launch overhead), the
	// Table I effect.
	dev, err := gpu.NewDevice(gpu.TeslaK40())
	if err != nil {
		t.Fatal(err)
	}
	launches := map[float64]int{}
	for _, q := range []float64{1, 4} {
		cfg := smallConfig()
		cfg.Quantum = q
		_, ginfo, err := RunGPU(context.Background(), cfg, dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		launches[q] = ginfo.Launches
	}
	if launches[1] <= launches[4] {
		t.Fatalf("launches(q=1)=%d should exceed launches(q=4)=%d", launches[1], launches[4])
	}
}

func TestCSVDisplay(t *testing.T) {
	cfg := smallConfig()
	cfg.Species = []int{models.NeuroM}
	var sb strings.Builder
	if _, err := Run(context.Background(), cfg, CSVDisplay(&sb, []string{"M"})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time,mean_M,std_M,median_M" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+25 {
		t.Fatalf("lines = %d, want 26", len(lines))
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Fatalf("first data line %q should start at t=0", lines[1])
	}
}

// TestOnlineMeanConvergence: with many trajectories, the ensemble mean of
// M at t=0 must equal the (deterministic) initial count, and the variance
// at t=0 must be zero.
func TestInitialCutIsExact(t *testing.T) {
	cfg := smallConfig()
	cfg.Trajectories = 16
	sys := models.Neurospora(20)
	want := float64(sys.Init[models.NeuroM])
	var first *WindowStat
	if _, err := Run(context.Background(), cfg, func(ws WindowStat) error {
		if first == nil {
			w := ws
			first = &w
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m := first.PerCut[0][models.NeuroM]
	if m.Mean != want || m.Var != 0 {
		t.Fatalf("t=0 cut: mean=%g var=%g, want mean=%g var=0", m.Mean, m.Var, want)
	}
	if math.IsNaN(m.Mean) {
		t.Fatal("NaN mean")
	}
}

func BenchmarkPipelineSmall(b *testing.B) {
	cfg := smallConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
