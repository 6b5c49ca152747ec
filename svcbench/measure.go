package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cwcflow/internal/stats"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// metricDef is one row of BENCHMARK.json; bound is 0 for per-layer metrics.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a caller of the service sees, with the share of
// the parent's median by which each may get worse before a change counts
// as a regression.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s", "higher", 0.10},
	{"first_window_ms", "ms", "lower", 0.10},
	{"job_ms", "ms", "lower", 0.10},
	{"cpu_s_per_msample", "s/Msample", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// runConfig sizes one pass over one workload.
type runConfig struct {
	seed int64
	// seconds is the length of the measured phase; clients stop taking new
	// jobs once it has passed. jobs, when positive, fixes the job count
	// instead (the tests' three-job smoke pass).
	seconds float64
	jobs    int
	// setups is how many times, at least, the fleet is set up; setup_s is
	// the median. Quick set-ups are noisier, so they repeat — to at most
	// three times as many — until setupBudget has been spent on them.
	setups      int
	setupBudget time.Duration
	// trace adds the traced replay to the pass and layers, the
	// workload-independent timings of measureLayers, to its result.
	trace  bool
	layers []metric
}

// result is one workload's report.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	// Problems lists failed operations (first few) and digest mismatches;
	// empty means the outputs were correct.
	Problems []string
	EndToEnd []metric
	Diag     []metric
	Layers   []metric // filled by traced runs only
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// quantile is stats.Quantile over durations, in milliseconds; 0 for none.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	v, _ := stats.Quantile(xs, q) // errs only on an empty input or q outside [0,1]
	return v
}

func median(xs []float64) float64 {
	v, _ := stats.Quantile(xs, 0.5) // errs only on an empty input, where 0 is the answer
	return v
}

func iqr(xs []float64) float64 {
	lo, _ := stats.Quantile(xs, 0.25)
	hi, _ := stats.Quantile(xs, 0.75)
	return hi - lo
}

// tailPercentile is the highest conventional percentile that still has at
// least ten of the n samples beyond it; 0 when even p50 has fewer.
func tailPercentile(n int) float64 {
	best := 0
	for _, permille := range []int{500, 750, 900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = permille
		}
	}
	return float64(best) / 10
}

// setUp brings a fresh fleet to the point where the clock may start:
// processes spawned, server healthy, workers reachable, warm-up jobs done.
// The returned duration is one setup_s sample.
func setUp(ctx context.Context, e env, w workload, seed int64) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(ctx, e, w)
	if err != nil {
		return nil, 0, err
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	for k := 1; k <= warmups; k++ {
		if rec := runJob(ctx, hc, f.base, w.spec(seed, -k), false); rec.err != nil {
			err := fmt.Errorf("svcbench: warm-up job failed: %w\n%s", rec.err, f.logTail())
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// cpuReading is the fleet's cumulative CPU time at one instant.
type cpuReading struct {
	at  time.Time
	cpu float64
}

// sampleCPU reads the fleet's CPU time now, then once a second until done
// closes, then once more: the boundaries of the measured phase's segments.
func sampleCPU(f *fleet, done <-chan struct{}) ([]cpuReading, error) {
	var readings []cpuReading
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for last := false; ; {
		cpu, err := f.cpuSeconds()
		if err != nil {
			return nil, err
		}
		readings = append(readings, cpuReading{time.Now(), cpu})
		if last {
			return readings, nil
		}
		select {
		case <-tick.C:
		case <-done:
			last = true
		}
	}
}

// segmentRates cuts the measured phase at the CPU readings and returns, per
// segment, samples delivered per second and CPU seconds per million
// samples. A job's samples count evenly over the time the job took, so a
// job that straddles a boundary contributes to both sides. The closing
// segment is kept only if it is at least half a second long (or the only
// one); a segment that delivered nothing has no cost per sample.
func segmentRates(readings []cpuReading, records []jobRecord) (perS, cpuPerM []float64) {
	for k := 1; k < len(readings); k++ {
		from, to := readings[k-1], readings[k]
		length := to.at.Sub(from.at)
		if k == len(readings)-1 && k > 1 && length < time.Second/2 {
			break
		}
		var samples float64
		for _, r := range records {
			if r.err != nil || r.done <= 0 {
				continue
			}
			sent := r.finished.Add(-r.done)
			lo, hi := sent, r.finished
			if from.at.After(lo) {
				lo = from.at
			}
			if to.at.Before(hi) {
				hi = to.at
			}
			if hi.After(lo) {
				samples += float64(r.stream.end.Progress.Samples) * float64(hi.Sub(lo)) / float64(r.done)
			}
		}
		perS = append(perS, samples/length.Seconds())
		if samples > 0 {
			cpuPerM = append(cpuPerM, (to.cpu-from.cpu)/samples*1e6)
		}
	}
	return perS, cpuPerM
}

// closedLoop drives the fleet with `clients` callers, each submitting its
// next job from the seed's list only after the previous one ended, until
// the measured phase is over. Records come back in job-list order.
func closedLoop(ctx context.Context, f *fleet, w workload, cfg runConfig) []jobRecord {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		records  []jobRecord
		wg       sync.WaitGroup
		deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if cfg.jobs > 0 && i >= cfg.jobs || cfg.jobs <= 0 && !time.Now().Before(deadline) {
					return
				}
				// Job 0 is the one compared with the reference digest.
				rec := runJob(ctx, hc, f.base, w.spec(cfg.seed, i), i == 0)
				rec.idx = i
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(records, func(a, b int) bool { return records[a].idx < records[b].idx })
	return records
}

// runWorkload is one pass over one workload: reference, set-up, warm-up,
// measured closed loop, stage budget and — for a traced run — the replay
// and the layer timings. A returned error means the pass could not be
// made; wrong outputs and failed operations are reported in the result.
func runWorkload(ctx context.Context, e env, w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name}
	spec0 := w.spec(cfg.seed, 0)
	refDigest, baseline, err := reference(spec0)
	if err != nil {
		return nil, err
	}

	var f *fleet
	var setupTimes []time.Duration
	var spent time.Duration
	for k := 0; k < cfg.setups || k < 3*cfg.setups && spent < cfg.setupBudget; k++ {
		if f != nil {
			f.stop()
		}
		var dt time.Duration
		if f, dt, err = setUp(ctx, e, w, cfg.seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, dt)
		spent += dt
	}
	defer f.stop()

	before, err := scrapeMetrics(f.base)
	if err != nil {
		return nil, err
	}
	var readings []cpuReading
	var cpuErr error
	loopDone, cpuDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cpuDone)
		readings, cpuErr = sampleCPU(f, loopDone)
	}()
	start := time.Now()
	records := closedLoop(ctx, f, w, cfg)
	close(loopDone)
	<-cpuDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	if len(records) == 0 {
		return nil, errors.New("svcbench: the measured phase ran no job")
	}
	wall := readings[len(readings)-1].at.Sub(start).Seconds()
	cpuTotal := readings[len(readings)-1].cpu - readings[0].cpu
	after, err := scrapeMetrics(f.base)
	if err != nil {
		return nil, err
	}
	b := newBudget(before, after)

	// Per-job accounting. A failed operation has no latency and no samples.
	var (
		samples, simSamples, reactions, remoteTasks, windowBytes, windows float64
		firsts, dones, hits                                               []time.Duration
	)
	res.Attempted = len(records)
	for i, r := range records {
		if r.err != nil {
			res.Failed++
			res.problem("job %d: %v", r.idx, r.err)
			continue
		}
		p := r.stream.end.Progress
		samples += float64(p.Samples)
		windows += float64(r.stream.windows)
		windowBytes += float64(r.stream.windowBytes)
		dones = append(dones, r.done)
		if r.cacheHit {
			hits = append(hits, r.done)
		} else {
			firsts = append(firsts, r.firstWindow)
			simSamples += float64(p.Samples)
			reactions += float64(p.Reactions)
			remoteTasks += float64(p.RemoteTasksDone)
		}
		// A repeat must stream exactly what the job it repeats streamed.
		if j := w.repeats(cfg.seed, r.idx); j >= 0 && records[j].err == nil {
			if !r.cacheHit {
				res.problem("job %d repeats job %d but was simulated again", r.idx, j)
			} else if r.stream.raw != records[j].stream.raw {
				res.problem("job %d: cache-hit stream differs from job %d's", r.idx, j)
			}
		}
		if i == 0 && r.stream.canon != refDigest {
			res.problem("served digest %s != single-threaded reference %s", r.stream.canon, refDigest)
		}
	}
	if w.remote && remoteTasks == 0 {
		res.problem("no trajectory completed on the remote worker")
	}
	if samples == 0 {
		return res, nil // every job failed: nothing to divide by
	}

	perS, cpuPerM := segmentRates(readings, records)
	res.EndToEnd = []metric{
		{"samples_per_s", median(perS), "samples/s", fmt.Sprintf("median over %d one-second segments of samples delivered / segment length", len(perS))},
		{"first_window_ms", quantile(firsts, 0.5), "ms", fmt.Sprintf("median over n=%d simulated jobs, POST sent → first window", len(firsts))},
		{"job_ms", quantile(dones, 0.5), "ms", fmt.Sprintf("median over n=%d jobs, POST sent → end event", len(dones))},
		{"cpu_s_per_msample", median(cpuPerM), "s/Msample", "median over the segments of utime+stime of every server-side process / 1e6 samples"},
		{"setup_s", quantile(setupTimes, 0.5) / 1e3, "s", fmt.Sprintf("median of %d set-ups: spawn → healthy → %d warm-up jobs", len(setupTimes), warmups)},
	}
	tail := tailPercentile(len(dones))
	res.Diag = []metric{
		{"failed_ops", float64(res.Failed), "count", fmt.Sprintf("of %d attempted", res.Attempted)},
		{"measured_wall_s", wall, "s", ""},
		{"mean_samples_per_s", samples / wall, "samples/s", "whole measured phase; the gated metric is the segment median, which a burst of machine noise moves less"},
		{"mean_cpu_s_per_msample", cpuTotal / samples * 1e6, "s/Msample", "whole measured phase"},
		{"segment_spread_pct", 100 * iqr(perS) / median(perS), "%", "inter-quartile range / median of the segments' samples_per_s: how steady the machine was during this pass"},
		{"jobs_per_s", float64(len(dones)) / wall, "1/s", ""},
		{"first_window_p90_ms", quantile(firsts, 0.9), "ms", "diagnostic, not gated"},
		{"job_p90_ms", quantile(dones, 0.9), "ms", "diagnostic, not gated"},
		{"job_tail_ms", quantile(dones, tail/100), "ms", fmt.Sprintf("p%g: the highest percentile with at least 10 of the %d samples beyond it", tail, len(dones))},
		{"peak_rss_mb", f.peakRSSMB(), "MB", "sum of VmHWM over server-side processes"},
		{"baseline_samples_per_s", baseline, "samples/s", "job 0 in-process, 1 worker, 1 stat engine, no cache"},
	}
	stageLayers, stageDiag := b.metrics(w, wall)
	res.Diag = append(res.Diag, stageDiag...)
	modelMS, err := modelJobMS(w, spec0, b)
	if err != nil {
		return nil, err
	}
	jobMS := quantile(dones, 0.5)
	stageLayers = append(stageLayers,
		metric{"model_job_ms", modelMS, "ms", "internal/platform.EstimateMakespan from the measured mean quantum and analyse times"},
		metric{"model_residual_pct", 100 * math.Abs(jobMS-modelMS) / jobMS, "%", "|job_ms − model_job_ms| / job_ms"},
		metric{"stream.bytes_per_window", windowBytes / windows, "B", "window JSON on the NDJSON stream"},
		metric{"cache_hit_ms", quantile(hits, 0.5), "ms", fmt.Sprintf("median over n=%d cache-hit jobs, POST sent → end event; 0 on workloads without repeats", len(hits))},
		metric{"reactions_per_sample", reactions / math.Max(simSamples, 1), "count", "SSA steps per delivered sample, simulated jobs"},
		metric{"obs.observations_per_sample", b.observations() / samples, "count", "server histogram observations per sample; × obs.observe_ns = instrumentation cost"},
	)
	if !cfg.trace {
		// Printed either way; only a traced run puts them in its result.
		res.Diag = append(res.Diag, stageLayers...)
		return res, nil
	}

	// The traced run: job 0 again, in-process, with a span per layer call.
	remoteShare := b.remoteShare()
	// A millisecond job is replayed many times, alternating plain and
	// traced, so that shares and overhead are sums over enough work.
	var plain, traced replayResult
	self, spans := map[string]int64{}, 0
	for rep := 0; rep == 0 || rep < 50 && traced.wall < 200*time.Millisecond; rep++ {
		p, err := replay(w, spec0, remoteShare, filepath.Join(f.dir, fmt.Sprintf("replay-plain-%d", rep)), nil)
		if err != nil {
			return nil, err
		}
		rec := &recorder{job: records[0].id}
		t, err := replay(w, spec0, remoteShare, filepath.Join(f.dir, fmt.Sprintf("replay-traced-%d", rep)), rec)
		if err != nil {
			return nil, err
		}
		if t.canon != refDigest || p.canon != refDigest {
			res.problem("replay digest %s != single-threaded reference %s: the trace is not of the same work", t.canon, refDigest)
		}
		if rep == 0 {
			if err := writeTrace(e.out, w.name, rec); err != nil {
				return nil, err
			}
		}
		plain.wall += p.wall
		traced.wall += t.wall
		traced.reactions += t.reactions
		spans += len(rec.spans)
		for layer, ns := range layerSelfTimes(rec.spans) {
			self[layer] += ns
		}
	}
	stepNs := 0.0
	for _, m := range cfg.layers {
		if m.Name == "gillespie.step_ns" {
			stepNs = m.Value
		}
	}
	res.Layers = append(append(shareMetrics(self, spans, traced, plain, stepNs), stageLayers...), cfg.layers...)
	return res, nil
}

// shareLayers are the layers a replay's spans fall into, in report order.
var shareLayers = []string{"sim", "window", "stats", "dff", "store", "publish", "residual"}

// shareMetrics turns the traced replays' self times, summed by layer, into
// each layer's share of the job's wall clock. The shares, residual
// included, sum to 100 %.
func shareMetrics(self map[string]int64, spans int, traced, plain replayResult, stepNs float64) []metric {
	var wall float64 // self times sum to the root spans' durations
	for _, ns := range self {
		wall += float64(ns)
	}
	var out []metric
	for _, layer := range shareLayers {
		note := "self time of " + layer + ".* spans / replayed job wall clock"
		if layer == "residual" {
			note = "root span self time: loop overhead and whatever no span covers; above 10 % is a finding"
		}
		out = append(out, metric{"share." + layer, 100 * float64(self[layer]) / wall, "%", note})
	}
	return append(out,
		metric{"share.gillespie", 100 * stepNs * float64(traced.reactions) / wall, "%", "computed: gillespie.step_ns × reactions / wall; part of share.sim"},
		metric{"trace.replay_ms", float64(traced.wall) / float64(time.Millisecond), "ms", fmt.Sprintf("job 0 replayed single-threaded, %d spans in all", spans)},
		metric{"trace.overhead_pct", 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds(), "%", "traced replay vs the same replay without spans"},
	)
}

// perLayer lists BENCHMARK.json's per_layer rows. Only name, unit and
// better matter there; the values' notes carry the definitions.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "share.sim", unit: "%", better: "lower"},
		{name: "share.window", unit: "%", better: "lower"},
		{name: "share.stats", unit: "%", better: "lower"},
		{name: "share.dff", unit: "%", better: "lower"},
		{name: "share.store", unit: "%", better: "lower"},
		{name: "share.publish", unit: "%", better: "lower"},
		{name: "share.residual", unit: "%", better: "lower"},
		{name: "share.gillespie", unit: "%", better: "lower"},
		{name: "trace.replay_ms", unit: "ms", better: "lower"},
		{name: "trace.overhead_pct", unit: "%", better: "lower"},
	}
	for _, st := range stages {
		defs = append(defs, metricDef{name: "stage." + st.name + ".mean_us", unit: "us", better: "lower"})
	}
	return append(defs,
		metricDef{name: "util.sim_pool_pct", unit: "%", better: "higher"},
		metricDef{name: "util.remote_pool_pct", unit: "%", better: "higher"},
		metricDef{name: "util.stat_engines_pct", unit: "%", better: "higher"},
		metricDef{name: "remote_share", unit: "%", better: "higher"},
		metricDef{name: "requeued_tasks", unit: "count", better: "lower"},
		metricDef{name: "model_job_ms", unit: "ms", better: "lower"},
		metricDef{name: "model_residual_pct", unit: "%", better: "lower"},
		metricDef{name: "stream.bytes_per_window", unit: "B", better: "lower"},
		metricDef{name: "cache_hit_ms", unit: "ms", better: "lower"},
		metricDef{name: "reactions_per_sample", unit: "count", better: "lower"},
		metricDef{name: "obs.observations_per_sample", unit: "count", better: "lower"},
		metricDef{name: "gillespie.step_ns", unit: "ns", better: "lower"},
		metricDef{name: "sim.quantum_ns_per_sample", unit: "ns", better: "lower"},
		metricDef{name: "window.push_ns_per_sample", unit: "ns", better: "lower"},
		metricDef{name: "stats.analyse_us_per_window", unit: "us", better: "lower"},
		metricDef{name: "dff.roundtrip_us_per_batch", unit: "us", better: "lower"},
		metricDef{name: "dff.bytes_per_sample", unit: "B", better: "lower"},
		metricDef{name: "store.append_us", unit: "us", better: "lower"},
		metricDef{name: "store.bytes_per_window", unit: "B", better: "lower"},
		metricDef{name: "store.sync_us", unit: "us", better: "lower"},
		metricDef{name: "serve.submit_us", unit: "us", better: "lower"},
		metricDef{name: "serve.spec_digest_us", unit: "us", better: "lower"},
		metricDef{name: "sched.fifo_push_pop_ns", unit: "ns", better: "lower"},
		metricDef{name: "sched.wfq_push_pop_ns", unit: "ns", better: "lower"},
		metricDef{name: "lease.acquire_us", unit: "us", better: "lower"},
		metricDef{name: "lease.renew_us", unit: "us", better: "lower"},
		metricDef{name: "obs.observe_ns", unit: "ns", better: "lower"},
	)
}()
