package serve_test

// End-to-end pins for the observability layer: the /metrics exposition
// must cover every pipeline stage after one job runs, and a trace id
// submitted in a traceparent header must come back from GET
// /jobs/{id}/trace carrying spans recorded on a remote sim worker.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/obs"
	"cwcflow/internal/serve"
)

// fetchMetrics scrapes GET /metrics and returns the exposition text.
func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsCoverPipelineStages is the exposition acceptance pin: after
// one job runs start to finish, /metrics must carry a populated series
// for every quantum-lifecycle stage the local path crosses, plus the
// throughput, cache and control-plane families.
func TestMetricsCoverPipelineStages(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, 0, serve.Options{})
	st := submitJob(t, ts.URL, slowSpec())
	waitForState(t, ts.URL, st.ID, serve.StateDone)

	text := fetchMetrics(t, ts.URL)
	stages := []string{
		`cwc_sched_wait_seconds_count`,
		`cwc_quantum_seconds_count{site="local"}`,
		`cwc_ingress_wait_seconds_count`,
		`cwc_analyse_seconds_count`,
		`cwc_reorder_wait_seconds_count`,
		`cwc_quanta_total{site="local"}`,
		`cwc_windows_published_total`,
		`cwc_submits_total{outcome="created"} 1`,
		`cwc_cache_requests_total{result="miss"} 1`,
		`cwc_tenant_quanta_total{tenant="default"}`,
		`cwc_jobs{state="total"} 1`,
		`cwc_pool_workers`,
		`cwc_stat_engines`,
	}
	for _, want := range stages {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	if strings.Contains(text, "_count 0") {
		// Every histogram the local path crosses must have observed
		// something; a zero count means a stage boundary lost its hook.
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "_count 0") && !strings.Contains(line, "remote") &&
				!strings.Contains(line, "cwc_wal") && !strings.Contains(line, "cwc_admission") {
				t.Errorf("stage histogram never observed: %s", line)
			}
		}
	}
	if !strings.Contains(text, fmt.Sprintf("cwc_windows_published_total %d", slowSpecWindows)) {
		t.Errorf("cwc_windows_published_total != %d in:\n%s", slowSpecWindows,
			grepLines(text, "cwc_windows_published_total"))
	}
}

// metricValue reads one series off the exposition text.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, l := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(l, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// TestMetricsCountCutSummariesOnceAndQuantaPerQuantum pins the two counts the
// sliding-window job makes checkable from outside: every cut is summarised
// exactly once however many windows contain it, and a slice of n cheap
// quanta is still n quanta to every counter and histogram, the tenant's
// included, which must agree with GET /tenants. (How few trips through the
// scheduler queue that takes depends on the clock here; the slice tests
// pin it with the clock out of the way.) The recovered row finishes the
// job on a restarted durable server: its quanta count for the tenant too.
func TestMetricsCountCutSummariesOnceAndQuantaPerQuantum(t *testing.T) {
	t.Parallel()
	spec := serve.JobSpec{Model: "sir", Omega: 100, Trajectories: 16, End: 12, Period: 0.5,
		WindowSize: 8, WindowStep: 1, KMeansK: 2, PeriodHalfWin: 1, Seed: 5}
	opts := serve.Options{Workers: 2, StatEngines: 2}
	for _, tc := range []struct {
		name string
		// run takes a job of spec to done and returns the base URL of the
		// server that finished it.
		run func(t *testing.T) string
		// whole says that server ran the whole job, every window and cut.
		whole bool
	}{
		{"fresh", func(t *testing.T) string {
			_, ts := newTestServer(t, 0, opts)
			st := submitJob(t, ts.URL, spec)
			waitForState(t, ts.URL, st.ID, serve.StateDone)
			return ts.URL
		}, true},
		{"recovered", func(t *testing.T) string {
			dir := t.TempDir()
			slow := opts
			slow.Resolver = throttledResolver(200 * time.Microsecond)
			svc, base := newDurableServer(t, dir, slow)
			st := submitJob(t, base, spec)
			waitWindows(t, base, st.ID, 2)
			svc.Close()
			_, base = newDurableServer(t, dir, opts)
			waitForState(t, base, st.ID, serve.StateDone)
			return base
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.run(t)
			text := fetchMetrics(t, base)
			const cuts, windows = 25, 18 // samples at 0, 0.5, …, 12; windows of 8 starting at cuts 0…17
			if tc.whole {
				if got := metricValue(t, text, "cwc_windows_published_total"); got != windows {
					t.Fatalf("cwc_windows_published_total = %v, want %d", got, windows)
				}
				if got := metricValue(t, text, "cwc_cut_summaries_total"); got != cuts {
					t.Fatalf("cwc_cut_summaries_total = %v for %d cuts in %d windows of 8, want one per cut", got, cuts, windows)
				}
			}
			quanta := metricValue(t, text, `cwc_quanta_total{site="local"}`)
			if tc.whole && quanta < 16*cuts/2 {
				t.Fatalf(`cwc_quanta_total{site="local"} = %v, implausibly few for 16 trajectories of %d samples`, quanta, cuts)
			}
			for _, series := range []string{`cwc_quantum_seconds_count{site="local"}`, `cwc_tenant_quanta_total{tenant="default"}`} {
				if got := metricValue(t, text, series); got != quanta {
					t.Fatalf(`%s = %v, want the %v of cwc_quanta_total{site="local"}`, series, got, quanta)
				}
			}
			if got := getTenants(t, base)["default"].Quanta; float64(got) != quanta {
				t.Fatalf(`GET /tenants counts %d quanta for tenant default, /metrics %v`, got, quanta)
			}
		})
	}
}

// grepLines filters exposition text to the lines mentioning needle.
func grepLines(text, needle string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, needle) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// startWorkerOrigin runs one sim worker that records trace spans under
// the given origin identity — the full-option path cwc-dist uses.
func startWorkerOrigin(t *testing.T, simWorkers int, resolver core.ModelResolver, origin string) *killableWorker {
	t.Helper()
	l, err := dff.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &killableWorker{addr: l.Addr().String(), cancel: cancel, listener: l}
	go func() {
		_ = core.ServeSimWorkerOpts(ctx, w, core.SimWorkerOptions{
			SimWorkers: simWorkers,
			Resolver:   resolver,
			Origin:     origin,
		})
	}()
	t.Cleanup(w.kill)
	return w
}

// fetchTrace reads GET /jobs/{id}/trace as NDJSON spans.
func fetchTrace(t *testing.T, base, id string) (spans []obs.Span, traceID string) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s obs.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	return spans, resp.Header.Get("X-CWC-Trace-Id")
}

// TestTracePropagatesAcrossProcesses is the tracing acceptance pin: a
// caller-chosen trace id rides the traceparent header into admission,
// crosses the dff wire in the job header, and comes home in the worker's
// trailer — GET /jobs/{id}/trace shows local lifecycle spans and the
// remote worker-stream span under the one id.
func TestTracePropagatesAcrossProcesses(t *testing.T) {
	t.Parallel()
	const workerOrigin = "wkr-alpha"
	w := startWorkerOrigin(t, 2, walkResolver(0), workerOrigin)
	_, base := newRemoteServer(t, 0, serve.Options{
		WorkerAddrs: []string{w.addr},
	})

	traceID := strings.Repeat("ab", 16)
	body, _ := json.Marshal(walkSpec())
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.FormatTraceparent(traceID))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if st.TraceID != traceID {
		t.Fatalf("submit status trace id %q, want %q", st.TraceID, traceID)
	}
	waitForState(t, base, st.ID, serve.StateDone)

	// The worker's spans arrive with its stream trailer, which can land
	// moments after the job turns terminal: poll briefly.
	var spans []obs.Span
	var gotID string
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans, gotID = fetchTrace(t, base, st.ID)
		if hasSpan(spans, "worker-stream", workerOrigin) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if gotID != traceID {
		t.Fatalf("trace endpoint id %q, want %q", gotID, traceID)
	}
	for _, name := range []string{"admission", "dispatch", "run"} {
		if !hasSpan(spans, name, "") {
			t.Errorf("trace is missing local span %q; got %v", name, spanNames(spans))
		}
	}
	if !hasSpan(spans, "worker-stream", workerOrigin) {
		t.Fatalf("trace has no worker-stream span from %s; got %v", workerOrigin, spanNames(spans))
	}
	// The first-window event carries the trajectories finished when the
	// first window was published; scripts/distributed_smoke.sh parses it.
	var first []string
	for _, s := range spans {
		if s.Name == "first-window" {
			first = append(first, s.Detail)
		}
	}
	if len(first) != 1 {
		t.Fatalf("trace has %d first-window events, want 1: %q", len(first), first)
	}
	var done int
	_, err = fmt.Sscanf(first[0], "tasks_done=%d", &done)
	if err != nil || first[0] != fmt.Sprintf("tasks_done=%d", done) || done < 0 || done > walkSpec().Trajectories {
		t.Fatalf("first-window detail %q, want tasks_done=<0..%d>", first[0], walkSpec().Trajectories)
	}
	for _, s := range spans {
		if s.Trace != traceID {
			t.Fatalf("span %q carries trace id %q, want %q", s.Name, s.Trace, traceID)
		}
	}
}

func hasSpan(spans []obs.Span, name, origin string) bool {
	for _, s := range spans {
		if s.Name == name && (origin == "" || s.Origin == origin) {
			return true
		}
	}
	return false
}

func spanNames(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name + "@" + s.Origin
	}
	return out
}
