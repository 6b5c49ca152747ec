package obs

import (
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsAllocationFree pins the hot-path contract the serve and
// sim layers rely on: observing a metric must not allocate, the same
// way TestStepAllocationFree pins the simulation kernel. A cached
// CounterVec child (how jobs and worker connections hold their tenant/
// worker counters) must be allocation-free too.
func TestMetricsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_counter_total", "test")
	g := r.Gauge("t_gauge", "test")
	h := r.Histogram("t_hist_seconds", "test")
	child := r.CounterVec("t_vec_total", "test", "tenant", 4).With("alice")

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter_inc", func() { c.Inc() }},
		{"counter_add", func() { c.Add(3) }},
		{"gauge_set", func() { g.Set(7) }},
		{"gauge_add", func() { g.Add(-2) }},
		{"histogram_observe", func() { h.Observe(123 * time.Microsecond) }},
		{"histogram_observe_n", func() { h.ObserveN(37*time.Microsecond, 16) }},
		{"vec_child_inc", func() { child.Inc() }},
		{"nil_counter", func() { (*Counter)(nil).Inc() }},
		{"nil_histogram", func() { (*Histogram)(nil).Observe(time.Second) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
}

// TestHistogramBucketBoundaries: bucket i must hold exactly the
// durations d with bits.Len64(d) == i, i.e. 2^(i-1) ≤ d < 2^i ns, with
// 0 in bucket 0 and everything ≥ 2^(histBuckets-1) in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // negative clamps to zero
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{time.Duration(1) << 38, 39},
		{time.Duration(1)<<39 - 1, 39},        // largest finite-bucket value
		{time.Duration(1) << 39, histBuckets}, // first overflow value
		{time.Duration(1<<62 + 12345), histBuckets}, // deep overflow
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.d)
		buckets, count, sumNs := h.Snapshot()
		if count != 1 {
			t.Fatalf("Observe(%d): count %d", tc.d, count)
		}
		got := -1
		for i, b := range buckets {
			if b == 1 {
				got = i
			}
		}
		if got != tc.want {
			t.Errorf("Observe(%dns) landed in bucket %d, want %d", int64(tc.d), got, tc.want)
		}
		wantSum := uint64(tc.d)
		if tc.d < 0 {
			wantSum = 0
		}
		if sumNs != wantSum {
			t.Errorf("Observe(%dns) sum %d, want %d", int64(tc.d), sumNs, wantSum)
		}
		if tc.d >= 0 && tc.want < histBuckets && tc.d != 0 {
			if l := bits.Len64(uint64(tc.d)); l != tc.want {
				t.Errorf("test-case self-check: bits.Len64(%d)=%d != %d", tc.d, l, tc.want)
			}
		}
	}
}

// TestHistogramObserveN: n observations in one call must leave the
// histogram exactly as n single Observe calls would, and n < 1 (or a nil
// receiver) must leave it untouched.
func TestHistogramObserveN(t *testing.T) {
	var batched, looped Histogram
	for _, d := range []time.Duration{0, 1, 37 * time.Microsecond, time.Duration(1) << 40} {
		batched.ObserveN(d, 16)
		for i := 0; i < 16; i++ {
			looped.Observe(d)
		}
	}
	batched.ObserveN(time.Second, 0)
	batched.ObserveN(time.Second, -3)
	(*Histogram)(nil).ObserveN(time.Second, 4)
	gb, gc, gs := batched.Snapshot()
	wb, wc, ws := looped.Snapshot()
	if gb != wb || gc != wc || gs != ws {
		t.Fatalf("ObserveN diverged from repeated Observe: count %d/%d sum %d/%d buckets %v / %v", gc, wc, gs, ws, gb, wb)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (run under -race in CI) and checks no observation is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if n := h.Count(); n != goroutines*per {
		t.Fatalf("lost observations: count %d, want %d", n, goroutines*per)
	}
}

// TestCounterVecCardinalityCap: beyond max distinct label values, new
// values fold into the "other" child instead of growing the exposition.
func TestCounterVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_tenant_total", "test", "tenant", 3)
	for _, tenant := range []string{"a", "b", "c"} {
		v.With(tenant).Inc()
	}
	// Beyond the cap: d and e share "other".
	v.With("d").Inc()
	v.With("e").Add(2)
	if v.With("d") != v.With("e") {
		t.Fatal("overflow values got distinct children")
	}
	if got := v.With(VecOverflow).Value(); got != 3 {
		t.Fatalf("other child = %d, want 3", got)
	}
	// Pre-cap children stay distinct and intact.
	if v.With("a") == v.With("b") || v.With("a").Value() != 1 {
		t.Fatal("pre-cap children corrupted")
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "t_tenant_total{tenant="); n != 4 {
		t.Fatalf("rendered %d children, want 4 (3 + other):\n%s", n, out)
	}
	if !strings.Contains(out, `t_tenant_total{tenant="other"} 3`) {
		t.Fatalf("missing folded other child:\n%s", out)
	}
}

// TestExpositionFormat checks the rendered text against the Prometheus
// 0.0.4 grammar: HELP/TYPE per family, histogram bucket/sum/count
// structure, cumulative non-decreasing buckets ending at +Inf == count.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_jobs_total", "jobs", "outcome", "done").Add(5)
	r.Gauge("t_depth", "queue depth").Set(3)
	r.GaugeFunc("t_live", "live peers", func() float64 { return 2 })
	h := r.Histogram("t_wait_seconds", "wait")
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(20 * time.Minute) // overflow bucket

	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP t_jobs_total jobs\n# TYPE t_jobs_total counter\nt_jobs_total{outcome=\"done\"} 5\n",
		"# TYPE t_depth gauge\nt_depth 3\n",
		"t_live 2\n",
		"# TYPE t_wait_seconds histogram\n",
		`t_wait_seconds_bucket{le="+Inf"} 3`,
		"t_wait_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Cumulative buckets never decrease, and the finite tail (which the
	// 20-minute observation overflows past) stays below +Inf's total.
	var prev uint64
	var lastFinite uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "t_wait_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts decreased at %q", line)
		}
		prev = v
		if !strings.Contains(line, "+Inf") {
			lastFinite = v
		}
	}
	if lastFinite != 2 || prev != 3 {
		t.Fatalf("finite tail %d (want 2, overflow excluded), +Inf %d (want 3)", lastFinite, prev)
	}

	// Every sample line is "name{labels} value" with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
	}
}

// fmtSscan pulls the trailing integer off a sample line.
func fmtSscan(line string, v *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseUint(line[i+1:])
	return 1, err
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotUint
		}
		v = v*10 + uint64(s[i]-'0')
	}
	return v, nil
}

var errNotUint = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "not an unsigned integer" }

// TestRegistryIdempotentConstructors: registering the same series twice
// returns the same metric, so package-level wiring can be re-run safely.
func TestRegistryIdempotentConstructors(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_total", "x")
	b := r.Counter("t_total", "x")
	if a != b {
		t.Fatal("duplicate Counter registration returned a new metric")
	}
	h1 := r.Histogram("t_h_seconds", "x", "k", "v")
	h2 := r.Histogram("t_h_seconds", "x", "k", "v")
	if h1 != h2 {
		t.Fatal("duplicate Histogram registration returned a new metric")
	}
}

// TestRenderEvaluatesCallbacksUnlocked pins the lock-ordering contract
// that keeps /metrics scrapes deadlock-free: Render must not hold the
// registry mutex while evaluating GaugeFunc callbacks. Application
// callbacks take server locks, and application code registers metrics
// (CounterVec.With on first sight of a tenant) while holding those same
// locks — if Render sampled under r.mu, a scrape racing a first-tenant
// submission would AB-BA deadlock. A callback that re-enters the
// registry is the sharpest probe: sync.Mutex is not reentrant, so the
// old behaviour hangs here instead of merely racing.
func TestRenderEvaluatesCallbacksUnlocked(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("t_reentrant", "samples via a registry re-entry", func() float64 {
		r.Counter("t_registered_during_scrape_total", "x").Inc()
		return 1
	})
	done := make(chan error, 1)
	go func() {
		var sb strings.Builder
		done <- r.Render(&sb)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Render deadlocked: registry mutex held during GaugeFunc callback")
	}
	if got := r.Counter("t_registered_during_scrape_total", "x").Value(); got != 1 {
		t.Fatalf("callback-registered counter = %d, want 1", got)
	}
}

// TestRegistryKindCollisionPanics: re-registering a name or series as a
// different kind must fail loudly — the old behaviour returned a nil
// metric, silently discarding every subsequent write.
func TestRegistryKindCollisionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: kind collision did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("t_kind_total", "x")
	mustPanic("family counter->gauge", func() { r.Gauge("t_kind_total", "x") })
	mustPanic("family counter->histogram", func() { r.Histogram("t_kind_total", "x") })
	mustPanic("family counter->gaugefunc", func() {
		r.GaugeFunc("t_kind_total", "x", func() float64 { return 0 })
	})

	// Same family type but a different series backing: a CounterFunc
	// series re-requested as a value-backed Counter (and vice versa).
	r.CounterFunc("t_fn_total", "x", func() float64 { return 0 })
	mustPanic("series fn->counter", func() { r.Counter("t_fn_total", "x") })
	r.Gauge("t_val", "x")
	mustPanic("series gauge->gaugefunc", func() {
		r.GaugeFunc("t_val", "x", func() float64 { return 0 })
	})

	// Legitimate re-registrations stay allowed: same kind returns the
	// same metric, and a func series swaps its callback.
	if r.Counter("t_kind_total", "x") == nil {
		t.Fatal("same-kind re-registration returned nil")
	}
	r.CounterFunc("t_fn_total", "x", func() float64 { return 42 })
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "t_fn_total 42") {
		t.Fatalf("replaced CounterFunc callback not sampled:\n%s", sb.String())
	}
}

// TestNilRegistrySafe: a nil registry hands out usable no-op metrics.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "x").Inc()
	r.Gauge("x", "x").Set(1)
	r.Histogram("x_seconds", "x").Observe(time.Second)
	r.GaugeFunc("y", "y", func() float64 { return 1 })
	r.CounterVec("v_total", "v", "k", 2).With("a").Inc()
	if err := r.Render(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
