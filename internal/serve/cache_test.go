package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/serve"
	"cwcflow/internal/sim"
)

// newCountingServer is newTestServer with a resolver that counts its
// invocations: the resolver runs once per job actually created, so its
// count is the test's proof that a cache hit or attach started nothing.
func newCountingServer(t *testing.T, delay time.Duration, opts serve.Options) (*serve.Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	var resolves atomic.Int64
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	inner := testResolver(delay)
	opts.Resolver = func(ref core.ModelRef) (core.SimulatorFactory, error) {
		resolves.Add(1)
		return inner(ref)
	}
	svc, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts, &resolves
}

// waitCacheEntries waits for the cache index to reach n entries: the
// terminal transition signals Done before the server's jobFinished hook
// indexes the result, so a submit-after-wait can race the Put.
func waitCacheEntries(t *testing.T, svc *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for svc.CacheStats().Entries < n {
		if time.Now().After(deadline) {
			t.Fatalf("cache holds %d entries, want %d", svc.CacheStats().Entries, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResubmitCompletedSpecHitsCache is the tentpole acceptance pin:
// resubmitting a completed spec answers 201 with cache_hit=true, the same
// job id, a bit-identical spec digest — and zero new work (the resolver
// is never consulted, no job is created).
func TestResubmitCompletedSpecHitsCache(t *testing.T) {
	svc, ts, resolves := newCountingServer(t, 0, serve.Options{})

	st1 := submitJob(t, ts.URL, slowSpec())
	if st1.SpecDigest == "" || st1.CacheHit {
		t.Fatalf("first submit: digest %q cache_hit %v, want a digest and no hit", st1.SpecDigest, st1.CacheHit)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st1.ID + "/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitCacheEntries(t, svc, 1)
	after := resolves.Load()

	st2 := submitJob(t, ts.URL, slowSpec())
	if !st2.CacheHit {
		t.Fatal("resubmission of a completed spec did not report cache_hit")
	}
	if st2.ID != st1.ID {
		t.Fatalf("cache hit answered with job %s, want the completed %s", st2.ID, st1.ID)
	}
	if st2.SpecDigest != st1.SpecDigest {
		t.Fatalf("digest drifted across submissions: %s vs %s", st2.SpecDigest, st1.SpecDigest)
	}
	if st2.State != serve.StateDone {
		t.Fatalf("cache hit state %s, want done", st2.State)
	}
	if got := resolves.Load(); got != after {
		t.Fatalf("cache hit resolved a model (%d -> %d resolver calls): it must start nothing", after, got)
	}
	if jobs := svc.List(); len(jobs) != 1 {
		t.Fatalf("registry holds %d jobs, want 1", len(jobs))
	}
	cs := svc.CacheStats()
	if !cs.Enabled || cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("CacheStats = %+v, want enabled with 1 hit and 1 entry", cs)
	}

	// The counters are on the wire too.
	var stats serve.CacheStats
	r, err := http.Get(ts.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if stats.Hits != 1 {
		t.Fatalf("GET /cache hits = %d, want 1", stats.Hits)
	}
	var health map[string]any
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if health["cache_hits"] != float64(1) || health["cache_entries"] != float64(1) {
		t.Fatalf("healthz cache_hits=%v cache_entries=%v, want 1/1", health["cache_hits"], health["cache_entries"])
	}
}

// TestConcurrentSubmitsShareOneSimulation pins the race the in-lock
// re-check closes: two submissions of one spec racing through admission
// yield exactly one job — the loser attaches, both callers get the same
// job back, and the ensemble is simulated once. Both racers may resolve
// the model and probe one engine before the re-check decides, so the test
// counts the engines built beyond those admission probes.
func TestConcurrentSubmitsShareOneSimulation(t *testing.T) {
	var resolves, engines atomic.Int64
	inner := testResolver(2 * time.Millisecond)
	svc, err := serve.New(serve.Options{Workers: 4, Resolver: func(ref core.ModelRef) (core.SimulatorFactory, error) {
		resolves.Add(1)
		f, err := inner(ref)
		if err != nil {
			return nil, err
		}
		return func(traj int, seed int64) (sim.Simulator, error) {
			engines.Add(1)
			return f(traj, seed)
		}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	start := make(chan struct{})
	results := make([]serve.SubmitResult, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := svc.SubmitOutcome(slowSpec(), "")
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if results[0].Job != results[1].Job {
		t.Fatalf("racing submissions created distinct jobs %s and %s",
			results[0].Job.Status().ID, results[1].Job.Status().ID)
	}
	attached := 0
	for _, res := range results {
		if res.Attached {
			attached++
		}
	}
	if attached != 1 {
		t.Fatalf("%d of 2 racing submissions attached, want exactly 1", attached)
	}
	if jobs := svc.List(); len(jobs) != 1 {
		t.Fatalf("registry holds %d jobs, want 1", len(jobs))
	}
	if cs := svc.CacheStats(); cs.Attaches != 1 {
		t.Fatalf("CacheStats.Attaches = %d, want 1", cs.Attaches)
	}
	select {
	case <-results[0].Job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("shared job did not finish")
	}
	// Each resolution probes one engine (core.ResolveSpecies); every other
	// engine is a trajectory of the ensemble.
	if got, want := engines.Load()-resolves.Load(), int64(slowSpec().Trajectories); got != want {
		t.Fatalf("%d trajectory engines built, want %d (one simulation)", got, want)
	}
}

// TestAttachChargesZeroBudget: attaching to a running job holds no slot
// and no sample budget — only genuinely new work is charged.
func TestAttachChargesZeroBudget(t *testing.T) {
	svc, _ := newTestServer(t, 2*time.Millisecond, serve.Options{
		Tenants: map[string]serve.TenantConfig{
			// Exactly one slowSpec job (4 trajectories × 17 cuts = 68).
			"small": {SampleBudget: 68},
		},
	})
	first, err := svc.SubmitOutcome(slowSpec(), "small")
	if err != nil {
		t.Fatal(err)
	}
	attach, err := svc.SubmitOutcome(slowSpec(), "small")
	if err != nil {
		t.Fatalf("attach rejected: %v (attaching must cost nothing)", err)
	}
	if !attach.Attached || attach.Job != first.Job {
		t.Fatalf("second submission did not attach to the running job: %+v", attach)
	}
	if _, err := svc.SubmitOutcome(slowSpecSeed(9), "small"); !errors.Is(err, serve.ErrQuotaExceeded) {
		t.Fatalf("distinct spec over budget: %v, want ErrQuotaExceeded", err)
	}
	first.Job.Cancel()
}

// TestAttachSlowSubscriberDoesNotStallOwner: a submission that attaches
// shares the owner's stream, and a stalled attached reader is bounded by
// the per-subscriber mailbox — the job and the healthy reader both finish
// with the full ordered window sequence.
func TestAttachSlowSubscriberDoesNotStallOwner(t *testing.T) {
	_, ts := newTestServer(t, 5*time.Millisecond, serve.Options{SubscriberBuffer: 1})

	st1 := submitJob(t, ts.URL, slowSpec())
	st2 := submitJob(t, ts.URL, slowSpec())
	if !st2.CacheHit || st2.ID != st1.ID {
		t.Fatalf("second submission did not attach: id %s cache_hit %v", st2.ID, st2.CacheHit)
	}

	// The stalled subscriber opens the stream and never reads: its
	// mailbox (capacity 1) fills, later windows are dropped for it, and
	// nothing blocks the windower.
	stalled, err := http.Get(ts.URL + "/jobs/" + st1.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	sc, closeStream := openStream(t, ts.URL, st1.ID)
	defer closeStream()
	got := 0
	for {
		ev := nextDataEvent(t, sc)
		if ev.Type == "end" {
			if ev.Status == nil || ev.Status.State != serve.StateDone {
				t.Fatalf("end event status: %+v", ev.Status)
			}
			break
		}
		if ev.Type != "window" {
			continue
		}
		checkWindow(t, got, ev.Window)
		got++
	}
	if got != slowSpecWindows {
		t.Fatalf("healthy subscriber saw %d windows, want %d", got, slowSpecWindows)
	}
}

// TestCacheIndexSurvivesRestart: the index is memory-only but rebuilt
// from journal replay, so a resubmission after a restart still hits —
// same id, same digest, zero simulation.
func TestCacheIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc, base := newDurableServer(t, dir, serve.Options{})
	st := submitJob(t, base, sirSpec())
	refSt, refDigest := runStatusAndDigest(t, base, st.ID)
	if refSt.State != serve.StateDone {
		t.Fatalf("job ended %s (%s)", refSt.State, refSt.Error)
	}
	waitCacheEntries(t, svc, 1)
	svc.Close()

	svc2, base2 := newDurableServer(t, dir, serve.Options{})
	if svc2.CacheStats().Entries != 1 {
		t.Fatalf("replay rebuilt %d cache entries, want 1", svc2.CacheStats().Entries)
	}
	st2 := submitJob(t, base2, sirSpec())
	if !st2.CacheHit || st2.ID != st.ID {
		t.Fatalf("post-restart resubmit: id %s cache_hit %v, want hit on %s", st2.ID, st2.CacheHit, st.ID)
	}
	_, digest := runStatusAndDigest(t, base2, st2.ID)
	if digest != refDigest {
		t.Fatalf("cached results diverged across restart:\n  before %s\n  after  %s", refDigest, digest)
	}
}

// TestNoCacheDisablesDedup: -no-cache restores PR8 semantics — every
// submission is its own job, and GET /cache reports the cache off.
func TestNoCacheDisablesDedup(t *testing.T) {
	svc, ts := newTestServer(t, 0, serve.Options{NoCache: true})
	st1 := submitJob(t, ts.URL, slowSpec())
	st2 := submitJob(t, ts.URL, slowSpec())
	if st1.ID == st2.ID || st1.CacheHit || st2.CacheHit {
		t.Fatalf("cache disabled but submissions were deduplicated: %s/%s", st1.ID, st2.ID)
	}
	if cs := svc.CacheStats(); cs.Enabled || cs.Entries != 0 {
		t.Fatalf("CacheStats = %+v, want disabled and empty", cs)
	}
}

// TestCacheEvictionAtServeLevel: the index is LRU-bounded by
// CacheMaxEntries; an evicted spec simply runs again (a miss, never an
// error) and the eviction is counted.
func TestCacheEvictionAtServeLevel(t *testing.T) {
	svc, ts := newTestServer(t, 0, serve.Options{CacheMaxEntries: 1})
	run := func(spec serve.JobSpec) serve.Status {
		st := submitJob(t, ts.URL, spec)
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result?wait=true")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return st
	}
	first := run(slowSpecSeed(1))
	waitCacheEntries(t, svc, 1)
	run(slowSpecSeed(2)) // evicts seed 1 (capacity 1)

	deadline := time.Now().Add(5 * time.Second)
	for svc.CacheStats().Evictions < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction recorded: %+v", svc.CacheStats())
		}
		time.Sleep(time.Millisecond)
	}
	st := submitJob(t, ts.URL, slowSpecSeed(1))
	if st.CacheHit || st.ID == first.ID {
		t.Fatalf("evicted spec still hit: id %s cache_hit %v", st.ID, st.CacheHit)
	}
}

// TestCrossReplicaAttachRedirect: a submission whose spec is in flight on
// a live peer is redirected there (307) and attaches on the owner — the
// tier runs one simulation however many replicas are asked.
func TestCrossReplicaAttachRedirect(t *testing.T) {
	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
	})
	st := submitJob(t, aURL, longWalkSpec(24))

	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
	})

	body, _ := json.Marshal(longWalkSpec(24))
	noFollow := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	resp, err := noFollow.Post(bURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("peer submit: status %d, want 307 to the owner", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != aURL+"/jobs" {
		t.Fatalf("redirect to %q, want %q", loc, aURL+"/jobs")
	}

	// The default client follows the 307 (re-POSTing the body) and lands
	// the attach on A: same job id, no second simulation.
	st2 := submitJob(t, bURL, longWalkSpec(24))
	if st2.ID != st.ID || !st2.CacheHit {
		t.Fatalf("followed redirect: id %s cache_hit %v, want attach on %s", st2.ID, st2.CacheHit, st.ID)
	}
}
