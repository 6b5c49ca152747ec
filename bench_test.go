// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, plus an end-to-end pipeline benchmark
// on the real stochastic engines. Each figure benchmark regenerates the
// experiment and reports its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and surfaces the reproduced numbers
// (EXPERIMENTS.md records the full tables).
package cwcflow_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"cwcflow/internal/bench"
	"cwcflow/internal/core"
	"cwcflow/internal/gpu"
	"cwcflow/internal/serve"
)

// scale keeps the benchmark wall-clock reasonable while preserving every
// qualitative effect (the full publication parameters run in cmd/cwc-bench).
var scale = bench.Scale{Quanta: 12}

func BenchmarkFig3OneStatEngine(b *testing.B) {
	var e *bench.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = bench.Fig3(1, 1, scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "1024 trajectories", 32, "speedup1024@32w")
	report(b, e, "128 trajectories", 32, "speedup128@32w")
}

func BenchmarkFig3FourStatEngines(b *testing.B) {
	var e *bench.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = bench.Fig3(4, 1, scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "1024 trajectories", 32, "speedup1024@32w")
}

func BenchmarkFig4Cluster(b *testing.B) {
	var top *bench.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		top, _, err = bench.Fig4(1, scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, top, "4 cores per host", 8, "speedup4c@8hosts")
	report(b, top, "2 cores per host", 8, "speedup2c@8hosts")
}

func BenchmarkFig5SingleVM(b *testing.B) {
	var e *bench.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = bench.Fig5(1, bench.Scale{Quanta: 144})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "speedup", 4, "speedup@4cores")
}

func BenchmarkFig6TopVirtualCluster(b *testing.B) {
	var e *bench.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = bench.Fig6Top(1, bench.Scale{Quanta: 144})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "speedup", 32, "speedup@32vcores")
}

func BenchmarkFig6BottomHeterogeneous(b *testing.B) {
	var e *bench.Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = bench.Fig6Bottom(1, bench.Scale{Quanta: 144})
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, e, "speedup", 96, "gain@96cores")
}

func BenchmarkTable1CPUvsGPU(b *testing.B) {
	var res bench.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Table1(1, bench.Scale{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		if r.NSims == 2048 {
			b.ReportMetric(r.CPUQ10, "cpu2048q10_s")
			b.ReportMetric(r.GPUQ10, "gpu2048q10_s")
			b.ReportMetric(r.GPUQ1, "gpu2048q1_s")
		}
	}
}

// BenchmarkPipelineEndToEnd times the real shared-memory pipeline (actual
// Gillespie engines, alignment, statistics) on a small Neurospora
// ensemble — the live system rather than the platform model.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	factory, err := core.FactoryFor(core.ModelRef{Name: "neurospora", Omega: 50})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Factory:      factory,
		Trajectories: 16,
		End:          12,
		Period:       0.5,
		SimWorkers:   4,
		StatEngines:  2,
		WindowSize:   8,
		BaseSeed:     1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineGPUOffload is the same run offloaded to the simulated
// K40 device.
func BenchmarkPipelineGPUOffload(b *testing.B) {
	factory, err := core.FactoryFor(core.ModelRef{Name: "neurospora", Omega: 50})
	if err != nil {
		b.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.TeslaK40())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Factory:      factory,
		Trajectories: 16,
		End:          12,
		Period:       0.5,
		SimWorkers:   4,
		StatEngines:  2,
		WindowSize:   8,
		BaseSeed:     1,
	}
	b.ResetTimer()
	var util float64
	for i := 0; i < b.N; i++ {
		_, ginfo, err := core.RunGPU(context.Background(), cfg, dev, nil)
		if err != nil {
			b.Fatal(err)
		}
		util = ginfo.Utilization
	}
	b.ReportMetric(util*100, "simt_util_%")
}

// BenchmarkRunAgainstService runs one spec (neurospora ω 100, 64
// trajectories, end 48, 2 simulation workers, 2 stat engines) through
// core.Run and through an in-process serve.Server followed with Job.Follow,
// alternating which goes first, and reports their wall times and the
// run/service ratio: how close the batch pipeline comes to the service's
// speed on the same cores. The two must display equal windows. Reported,
// not gated: a wall-time ratio on a small shared box is too noisy.
func BenchmarkRunAgainstService(b *testing.B) {
	const trajectories, end, period, window, seed = 64, 48, 0.5, 16, 1
	factory, err := core.FactoryFor(core.ModelRef{Name: "neurospora", Omega: 100})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Factory: factory, Trajectories: trajectories, End: end, Period: period,
		WindowSize: window, SimWorkers: 2, StatEngines: 2, BaseSeed: seed}
	spec := serve.JobSpec{Model: "neurospora", Omega: 100, Trajectories: trajectories, End: end,
		Period: period, WindowSize: window, Seed: seed}
	svc, err := serve.New(serve.Options{Workers: 2, StatEngines: 2, NoCache: true})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	run := func() (ws []core.WindowStat) {
		if _, err := core.Run(context.Background(), cfg, func(w core.WindowStat) error {
			ws = append(ws, w)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return ws
	}
	service := func() (ws []core.WindowStat) {
		job, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := job.Follow(context.Background(), 0, nil, func(w core.WindowStat) error {
			ws = append(ws, w)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return ws
	}
	timed := func(f func() []core.WindowStat) ([]core.WindowStat, time.Duration) {
		start := time.Now()
		ws := f()
		return ws, time.Since(start)
	}
	var runTime, serviceTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var runWS, serviceWS []core.WindowStat
		var rt, st time.Duration
		if i%2 == 0 {
			runWS, rt = timed(run)
			serviceWS, st = timed(service)
		} else {
			serviceWS, st = timed(service)
			runWS, rt = timed(run)
		}
		if i == 0 && !reflect.DeepEqual(runWS, serviceWS) {
			b.Fatal("core.Run and the service displayed different windows")
		}
		runTime += rt
		serviceTime += st
	}
	b.ReportMetric(runTime.Seconds()*1e3/float64(b.N), "run_ms")
	b.ReportMetric(serviceTime.Seconds()*1e3/float64(b.N), "service_ms")
	b.ReportMetric(runTime.Seconds()/serviceTime.Seconds(), "run/service")
}

func report(b *testing.B, e *bench.Experiment, label string, x float64, metric string) {
	b.Helper()
	if v, ok := e.Lookup(label, x); ok {
		b.ReportMetric(v, metric)
	}
}
