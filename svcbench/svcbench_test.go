package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cwcflow/internal/serve"
)

func TestJobListIsDeterministicAndSeeded(t *testing.T) {
	for _, w := range workloads {
		differs := false
		for i := -warmups; i < 300; i++ {
			a, b := w.spec(7, i), w.spec(7, i)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: job %d differs between two calls with one seed", w.name, i)
			}
			if !reflect.DeepEqual(a, w.spec(8, i)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same job list", w.name)
		}
	}
}

func TestSmallJobRepeats(t *testing.T) {
	const seed, n = 3, 4000
	seen := map[int64]bool{}
	repeats := 0
	for i := -warmups; i < n; i++ {
		spec := smallJobSpec(seed, i)
		j := repeatOf(seed, i)
		if j < 0 {
			if seen[spec.Seed] {
				t.Fatalf("job %d is not a repeat but reuses RNG seed %d", i, spec.Seed)
			}
			seen[spec.Seed] = true
			continue
		}
		repeats++
		if back := i - j; back < repeatNear || j < 0 {
			t.Fatalf("job %d repeats job %d: too close for the original to have finished", i, j)
		}
		if repeatOf(seed, j) >= 0 {
			t.Fatalf("job %d repeats job %d, itself a repeat", i, j)
		}
		if !reflect.DeepEqual(spec, smallJobSpec(seed, j)) {
			t.Fatalf("job %d does not resubmit job %d's spec", i, j)
		}
	}
	if share := float64(repeats) / n; share < 0.2 || share > 0.3 {
		t.Errorf("%.1f%% of submissions repeat, want about a quarter", 100*share)
	}
}

func TestQuantileAndTailPercentile(t *testing.T) {
	ms := func(vs ...float64) []time.Duration {
		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v * float64(time.Millisecond))
		}
		return ds
	}
	if got := quantile(ms(5, 1, 3), 0.5); got != 3 {
		t.Errorf("median of 1,3,5 ms = %g", got)
	}
	if got := quantile(ms(1, 2, 3, 4), 0.5); got != 2.5 {
		t.Errorf("median of 1..4 ms = %g", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %g", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "window.align", Start: 10, End: 40, Parent: 0},
		{Name: "stats.analyse", Start: 15, End: 25, Parent: 1},
		{Name: "sim.quantum", Start: 50, End: 90, Parent: 0},
		{Name: "sim.build", Start: 90, End: 95, Parent: 0},
	}
	if got, want := selfTimes(spans), []int64{25, 20, 10, 40, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	want := map[string]int64{"residual": 25, "window": 20, "stats": 10, "sim": 45}
	if got := layerSelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("layerSelfTimes = %v, want %v", got, want)
	}
}

func TestBudgetIsTheDifferenceOfTwoScrapes(t *testing.T) {
	parse := func(text string) scrape {
		s, err := parseMetrics(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse("# HELP x\ncwc_analyse_seconds_bucket{le=\"1\"} 3\ncwc_analyse_seconds_sum 0.5\ncwc_analyse_seconds_count 10\n" +
		"cwc_quanta_total{site=\"local\"} 100\ncwc_quanta_total{site=\"remote\"} 0\n")
	after := parse("cwc_analyse_seconds_sum 1.5\ncwc_analyse_seconds_count 30\n" +
		"cwc_quanta_total{site=\"local\"} 400\ncwc_quanta_total{site=\"remote\"} 100\ncwc_quantum_seconds_sum{site=\"local\"} 2\ncwc_quantum_seconds_count{site=\"local\"} 300\n")
	b := newBudget(before, after)
	if got := b.stages["analyse"]; got.count != 20 || got.seconds != 1 || got.meanUS() != 50_000 {
		t.Errorf("analyse totals = %+v", got)
	}
	layers, _ := b.metrics(workload{simWorkers: 2, statEngines: 1}, 10)
	want := map[string]float64{"remote_share": 25, "util.sim_pool_pct": 10, "util.stat_engines_pct": 10, "stage.wal_fsync.mean_us": 0}
	for _, m := range layers {
		if v, ok := want[m.Name]; ok && m.Value != v {
			t.Errorf("%s = %g, want %g", m.Name, m.Value, v)
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables the program
// reports from in step.
func TestManifestMatchesCode(t *testing.T) {
	type row struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var manifest struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds || !reflect.DeepEqual(manifest.Paths, []string{"svcbench"}) {
		t.Errorf("run_seconds %d, paths %v", manifest.RunSeconds, manifest.Paths)
	}
	var want []row
	for _, w := range workloads {
		want = append(want, row{Name: w.name, Why: w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(manifest.Workloads, want) {
		t.Errorf("workloads: manifest %v, code %v", manifest.Workloads, want)
	}
	rows := func(defs []metricDef) (out []row) {
		for _, d := range defs {
			out = append(out, row{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
		}
		return out
	}
	if !reflect.DeepEqual(manifest.EndToEnd, rows(endToEnd)) {
		t.Errorf("end_to_end: manifest %v, code %v", manifest.EndToEnd, rows(endToEnd))
	}
	if !reflect.DeepEqual(manifest.PerLayer, rows(perLayer)) {
		t.Errorf("per_layer: manifest %v, code %v", manifest.PerLayer, rows(perLayer))
	}
}

// testEnv builds the children into a directory of the test's own, so
// leftover processes can be told from those of a benchmark run elsewhere
// on the machine.
func testEnv(t *testing.T) env {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := env{bin: filepath.Join(t.TempDir(), "bin"), out: filepath.Join(t.TempDir(), "out")}
	if err := buildChildren(context.Background(), root, e.bin); err != nil {
		t.Fatal(err)
	}
	return e
}

// assertNothingLeft fails if a child built into e.bin is still running or a
// fleet's temporary directory survived.
func assertNothingLeft(t *testing.T, e env) {
	t.Helper()
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && strings.HasPrefix(target, e.bin) {
			t.Errorf("leaked process %s running %s", filepath.Base(filepath.Dir(exe)), target)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(e.out, "run-*")); len(left) > 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}

// testConfig is a three-job traced pass with token layer timings.
func testConfig(t *testing.T, e env) runConfig {
	t.Helper()
	layers, err := measureLayers(e, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 1, jobs: 3, setups: 1, trace: true, layers: layers}
}

// TestSmokeEveryWorkload makes one three-job traced pass over every
// workload against real child processes: every metric BENCHMARK.json names
// must come out finite, digests must match, and the layers must separate
// the way the workloads were designed to.
func TestSmokeEveryWorkload(t *testing.T) {
	e := testEnv(t)
	base := testConfig(t, e)
	for _, w := range workloads {
		smoke := base
		if w.durable {
			// Enough millisecond jobs to reach the first repeats and to
			// outlast the 10 ms tick of the CPU clock.
			smoke.jobs = 200
		}
		began := time.Now()
		res, err := runWorkload(context.Background(), e, w, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s: pass took %v", w.name, time.Since(began).Round(time.Millisecond))
		if !res.correct() || res.Failed != 0 || res.Attempted != smoke.jobs {
			t.Errorf("%s: attempted %d, failed %d, problems %v", w.name, res.Attempted, res.Failed, res.Problems)
		}
		value := map[string]float64{}
		for _, m := range append(append([]metric{}, res.EndToEnd...), res.Layers...) {
			value[m.Name] = m.Value
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if v, ok := value[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (reported: %t)", w.name, d.name, v, ok)
			}
		}
		for _, d := range endToEnd {
			if value[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, d.name, value[d.name])
			}
		}
		if got := value["share.store"] > 0; got != w.durable {
			t.Errorf("%s: share.store = %g", w.name, value["share.store"])
		}
		if got := value["share.dff"] > 0 && value["remote_share"] > 0; got != w.remote {
			t.Errorf("%s: share.dff = %g, remote_share = %g", w.name, value["share.dff"], value["remote_share"])
		}
		switch w.name {
		case "sim-heavy.local":
			if value["share.sim"] < 70 || value["share.stats"]+value["share.window"] > 5 {
				t.Errorf("sim-heavy.local: share.sim %g, stats+window %g", value["share.sim"], value["share.stats"]+value["share.window"])
			}
		case "stats-heavy.local":
			if value["share.stats"]+value["share.window"] < 50 {
				t.Errorf("stats-heavy.local: stats+window %g", value["share.stats"]+value["share.window"])
			}
		}
		if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		assertNothingLeft(t, e)
	}
}

// TestChildrenAreReapedWhenAWorkloadFails breaks a workload after its
// children are up — once in the warm-up, once in the measured phase — and
// checks nothing outlives the pass.
func TestChildrenAreReapedWhenAWorkloadFails(t *testing.T) {
	e := testEnv(t)
	smoke := testConfig(t, e)
	broken := func(from int) workload {
		w, _ := workloadByName("small-jobs.durable")
		good := w.spec
		w.spec = func(seed int64, i int) serve.JobSpec {
			spec := good(seed, i)
			if i < 0 && from < 0 || i > 0 && from > 0 {
				spec.Model = "no-such-model"
			}
			return spec
		}
		return w
	}
	if _, err := runWorkload(context.Background(), e, broken(-1), smoke); err == nil {
		t.Error("a failing warm-up job did not fail the pass")
	}
	assertNothingLeft(t, e)
	res, err := runWorkload(context.Background(), e, broken(1), smoke)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != smoke.jobs-1 || res.correct() {
		t.Errorf("failed %d of %d, problems %v", res.Failed, res.Attempted, res.Problems)
	}
	if line := resultLine(res, endToEnd); line["correct"] != false || line["failed"] != smoke.jobs-1 {
		t.Errorf("result line %v", line)
	}
	assertNothingLeft(t, e)
}
