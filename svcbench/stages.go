package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"cwcflow/internal/platform"
	"cwcflow/internal/serve"
)

// scrape is one reading of the server's /metrics: series (name plus label
// set, exactly as exposed) → value.
type scrape map[string]float64

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the Prometheus text exposition, skipping comments and
// histogram buckets (the budget needs only sums and counts).
func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// stage names one histogram of the quantum lifecycle, in pipeline order.
type stage struct{ name, family, labels string }

var stages = []stage{
	{"admission_wait", "cwc_admission_wait_seconds", ""},
	{"sched_wait", "cwc_sched_wait_seconds", ""},
	{"quantum_local", "cwc_quantum_seconds", `{site="local"}`},
	{"quantum_remote", "cwc_quantum_seconds", `{site="remote"}`},
	{"remote_rtt", "cwc_remote_rtt_seconds", ""},
	{"ingress_wait", "cwc_ingress_wait_seconds", ""},
	{"analyse", "cwc_analyse_seconds", ""},
	{"reorder_wait", "cwc_reorder_wait_seconds", ""},
	{"wal_append", "cwc_wal_append_seconds", ""},
	{"wal_fsync", "cwc_wal_fsync_seconds", ""},
}

// stageTotals is one stage's observations between two scrapes.
type stageTotals struct{ count, seconds float64 }

func (t stageTotals) meanUS() float64 {
	if t.count == 0 {
		return 0
	}
	return t.seconds / t.count * 1e6
}

// budget is the measured phase as the server's own instruments saw it: the
// difference between a scrape taken before the clock started and one taken
// after it stopped, so neither costs the measurement anything.
type budget struct {
	stages       map[string]stageTotals
	remoteQuanta float64
	localQuanta  float64
	requeued     float64
}

func newBudget(before, after scrape) budget {
	delta := func(series string) float64 { return after[series] - before[series] }
	b := budget{stages: map[string]stageTotals{}}
	for _, st := range stages {
		b.stages[st.name] = stageTotals{
			count:   delta(st.family + "_count" + st.labels),
			seconds: delta(st.family + "_sum" + st.labels),
		}
	}
	b.localQuanta = delta(`cwc_quanta_total{site="local"}`)
	b.remoteQuanta = delta(`cwc_quanta_total{site="remote"}`)
	b.requeued = delta("cwc_requeued_tasks_total")
	return b
}

// remoteShare is the fraction of the phase's quanta that ran on the remote
// worker.
func (b budget) remoteShare() float64 {
	if all := b.localQuanta + b.remoteQuanta; all > 0 {
		return b.remoteQuanta / all
	}
	return 0
}

// observations is how many histogram observations the server made in the
// measured phase, the multiplier of obs.observe_ns.
func (b budget) observations() float64 {
	var n float64
	for _, t := range b.stages {
		n += t.count
	}
	return n
}

// metrics renders the budget: per-stage count and mean, and busy time
// against wall × width as utilisation.
func (b budget) metrics(w workload, wall float64) (layer, diag []metric) {
	for _, st := range stages {
		t := b.stages[st.name]
		diag = append(diag, metric{"stage." + st.name + ".count", t.count, "count", ""})
		layer = append(layer, metric{"stage." + st.name + ".mean_us", t.meanUS(), "us", ""})
	}
	pct := func(busy float64, width int) float64 {
		if wall <= 0 || width == 0 {
			return 0
		}
		return 100 * busy / (wall * float64(width))
	}
	remoteWidth := 0
	if w.remote {
		remoteWidth = 1
	}
	layer = append(layer,
		metric{"util.sim_pool_pct", pct(b.stages["quantum_local"].seconds, w.simWorkers), "%", "local quantum busy time / (wall × sim workers)"},
		metric{"util.remote_pool_pct", pct(b.stages["quantum_remote"].seconds, remoteWidth), "%", "worker-reported quantum busy time / wall"},
		metric{"util.stat_engines_pct", pct(b.stages["analyse"].seconds, w.statEngines), "%", "analyse busy time / (wall × stat engines)"},
	)
	layer = append(layer,
		metric{"remote_share", 100 * b.remoteShare(), "%", "remote quanta / all quanta"},
		metric{"requeued_tasks", b.requeued, "count", ""},
	)
	return layer, diag
}

// modelJobMS is the internal/platform prediction of one job's makespan
// from the measured mean quantum and analysis times — the paper's
// predicted-versus-observed method applied to the service. The closed
// loop keeps `clients` identical jobs on the pool at once, which the model
// sees as one job with that many times the trajectories.
func modelJobMS(w workload, spec serve.JobSpec, b budget) (float64, error) {
	spec = serve.CanonicalSpec(spec)
	quantum, quanta := b.stages["quantum_local"], b.localQuanta+b.remoteQuanta
	if quanta == 0 || quantum.count == 0 {
		return 0, nil
	}
	cost := (quantum.seconds + b.stages["quantum_remote"].seconds) / quanta
	wl := platform.Workload{
		Trajectories:      clients * spec.Trajectories,
		Quanta:            int(math.Ceil(spec.End / spec.Quantum)),
		SamplesPerQuantum: max(1, int(math.Round(spec.Quantum/spec.Period))),
		QuantumCost:       cost,
		StatBase:          b.stages["analyse"].meanUS() / 1e6 / float64(spec.WindowStep),
		Seed:              spec.Seed,
	}
	simWorkers := w.simWorkers
	if w.remote {
		simWorkers++
	}
	makespan, err := platform.EstimateMakespan(runtime.NumCPU(), simWorkers, w.statEngines, wl)
	return makespan * 1e3, err
}
