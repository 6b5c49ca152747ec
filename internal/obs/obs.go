// Package obs is the service's observability core: allocation-free
// atomic counters, gauges and fixed-bucket latency histograms, plus a
// Registry that renders them in Prometheus text exposition format
// (version 0.0.4) for GET /metrics.
//
// The package is dependency-free (stdlib only) and built for the 0
// allocs/op hot paths: Counter.Inc and Gauge.Set are single atomic
// operations, Histogram.Observe is exactly two atomic adds (one bucket,
// one sum) with a branch-free bits.Len64 bucket index. Every metric
// method is nil-receiver safe, so instrumented code paths never need a
// "metrics enabled?" conditional — a nil *Counter or *Histogram is a
// no-op sink.
//
// Cardinality policy: metrics are registered once with a fixed label
// set; the only dynamic labels come from CounterVec, which caps its
// distinct children and folds overflow values into the reserved child
// "other", so a hostile tenant name or an unbounded worker fleet cannot
// grow the exposition without bound.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (which may be negative). Safe on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one. Safe on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. Safe on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of finite histogram buckets. Bucket 0 holds
// zero-duration observations; bucket i (1 ≤ i < histBuckets) holds
// durations with 2^(i-1) ≤ d < 2^i nanoseconds, so the cumulative upper
// bound of bucket i is 2^i−1 ns. 2^39 ns ≈ 9.2 minutes; anything longer
// lands in the overflow slot and is visible only in +Inf/_count/_sum.
const histBuckets = 40

// Histogram is a fixed-bucket latency histogram over power-of-two
// nanosecond buckets. Observe is two atomic adds and never allocates,
// so it is safe inside the 0 allocs/op simulation and analysis paths.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64 // last slot = overflow
	sumNs   atomic.Uint64
}

// Observe records one duration. Negative durations count as zero. Safe
// on a nil receiver.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of duration d at the cost of one — how
// a batched report ("n quanta, this long on average") lands in a
// per-operation histogram without a loop. n < 1 records nothing.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if h == nil || n < 1 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	idx := bits.Len64(uint64(ns))
	if idx > histBuckets {
		idx = histBuckets
	}
	h.buckets[idx].Add(uint64(n))
	h.sumNs.Add(uint64(ns) * uint64(n))
}

// Snapshot returns the per-bucket counts (overflow last), the total
// observation count and the sum of observed nanoseconds.
func (h *Histogram) Snapshot() (buckets [histBuckets + 1]uint64, count, sumNs uint64) {
	if h == nil {
		return
	}
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.sumNs.Load()
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	_, n, _ := h.Snapshot()
	return n
}

// bucketLE renders the cumulative upper bound of finite bucket i in
// seconds: 0 for bucket 0, (2^i−1)·1e-9 beyond.
func bucketLE(i int) string {
	if i == 0 {
		return "0"
	}
	ns := float64(uint64(1)<<uint(i)) - 1
	return strconv.FormatFloat(ns/1e9, 'g', -1, 64)
}

// seriesKind discriminates what a registered series renders as.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // sampled at scrape time (GaugeFunc/CounterFunc)
}

type family struct {
	name, help, typ string
	series          []*series
	index           map[string]*series
}

// Registry holds registered metrics and renders them as Prometheus text
// exposition. All methods are safe for concurrent use and safe on a nil
// receiver — a nil Registry hands out nil metrics, which are no-op sinks.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) familyLocked(name, help, typ string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, index: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		// A silent nil metric here would turn every write into an
		// invisible no-op; registration collisions are programmer errors
		// and fail loudly at startup instead.
		panic(fmt.Sprintf("obs: metric %q registered as %s but already exists as %s", name, typ, f.typ))
	}
	return f
}

// checkSeriesKind panics when an existing series under the same family
// was registered as a different backing kind (e.g. a CounterFunc series
// re-requested as a plain Counter), which would otherwise hand the
// caller a nil, silently no-op metric.
func checkSeriesKind(name string, s *series, ok bool) {
	if !ok {
		panic(fmt.Sprintf("obs: series %s%s already registered with a different backing kind", name, s.labels))
	}
}

// renderLabels turns ("k","v","k2","v2") into `{k="v",k2="v2"}`.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter registers (or returns the already-registered) counter under
// name with the given label key/value pairs. Nil-registry safe.
func (r *Registry) Counter(name, help string, labelKV ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	key := renderLabels(labelKV)
	if s, ok := f.index[key]; ok {
		checkSeriesKind(name, s, s.c != nil)
		return s.c
	}
	s := &series{labels: key, c: &Counter{}}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.c
}

// Gauge registers (or returns) a gauge. Nil-registry safe.
func (r *Registry) Gauge(name, help string, labelKV ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	key := renderLabels(labelKV)
	if s, ok := f.index[key]; ok {
		checkSeriesKind(name, s, s.g != nil)
		return s.g
	}
	s := &series{labels: key, g: &Gauge{}}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.g
}

// Histogram registers (or returns) a latency histogram. Nil-registry
// safe.
func (r *Registry) Histogram(name, help string, labelKV ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "histogram")
	key := renderLabels(labelKV)
	if s, ok := f.index[key]; ok {
		checkSeriesKind(name, s, s.h != nil)
		return s.h
	}
	s := &series{labels: key, h: &Histogram{}}
	f.index[key] = s
	f.series = append(f.series, s)
	return s.h
}

// GaugeFunc registers a gauge whose value is sampled by fn at scrape
// time — for values the server already tracks elsewhere (queue depths,
// live peers), so /metrics and /healthz read the same source and can
// never disagree. Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelKV ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "gauge")
	key := renderLabels(labelKV)
	if s, ok := f.index[key]; ok {
		checkSeriesKind(name, s, s.fn != nil)
		s.fn = fn
		return
	}
	s := &series{labels: key, fn: fn}
	f.index[key] = s
	f.series = append(f.series, s)
}

// CounterFunc registers a counter sampled by fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelKV ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, "counter")
	key := renderLabels(labelKV)
	if s, ok := f.index[key]; ok {
		checkSeriesKind(name, s, s.fn != nil)
		s.fn = fn
		return
	}
	s := &series{labels: key, fn: fn}
	f.index[key] = s
	f.series = append(f.series, s)
}

// VecOverflow is the reserved child label value that absorbs counts for
// label values beyond a CounterVec's cardinality cap.
const VecOverflow = "other"

// CounterVec is a counter family over one dynamic label (tenant id,
// worker address) with a hard cardinality cap: once max distinct values
// exist, further values share the reserved "other" child. With is a
// mutex-guarded map lookup — callers on hot paths should resolve their
// child once and cache the *Counter, which is what the serve layer does
// per job and per worker connection.
type CounterVec struct {
	r    *Registry
	name string
	help string
	key  string
	max  int

	mu   sync.Mutex
	kids map[string]*Counter
}

// CounterVec registers a capped dynamic-label counter family.
// maxChildren < 1 means 1. Nil-registry safe (returns nil; With on a
// nil vec returns a nil, no-op counter).
func (r *Registry) CounterVec(name, help, labelKey string, maxChildren int) *CounterVec {
	if r == nil {
		return nil
	}
	if maxChildren < 1 {
		maxChildren = 1
	}
	return &CounterVec{
		r: r, name: name, help: help, key: labelKey, max: maxChildren,
		kids: make(map[string]*Counter),
	}
}

// With returns the child counter for value, folding values beyond the
// cardinality cap into the "other" child.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[value]; ok {
		return c
	}
	if value != VecOverflow && len(v.kids) >= v.max {
		value = VecOverflow
		if c, ok := v.kids[value]; ok {
			return c
		}
	}
	c := v.r.Counter(v.name, v.help, v.key, value)
	v.kids[value] = c
	return c
}

// Render writes the registry in Prometheus text exposition format.
//
// The family and series structure is snapshotted under r.mu, but metric
// values are read — and GaugeFunc/CounterFunc callbacks evaluated —
// only after the lock is released. Callbacks routinely acquire
// application locks (queue depths, job counts), and application code
// registers metrics (CounterVec.With) while holding those same locks;
// sampling a callback under r.mu would order the two locks both ways
// and deadlock a scrape against a concurrent registration.
func (r *Registry) Render(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = family{name: f.name, help: f.help, typ: f.typ}
		fams[i].series = make([]*series, len(f.series))
		for j, s := range f.series {
			// Copy the series value: fn may be replaced by a later
			// GaugeFunc re-registration under r.mu, so reading the shared
			// struct outside the lock would race.
			c := *s
			fams[i].series[j] = &c
		}
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.h != nil:
				renderHistogram(&b, f.name, s.labels, s.h)
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels,
					strconv.FormatFloat(s.fn(), 'g', -1, 64))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLE splices an le="bound" label into an already-rendered label set.
func withLE(labels, bound string) string {
	if labels == "" {
		return `{le="` + bound + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + bound + `"}`
}

func renderHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	buckets, count, sumNs := h.Snapshot()
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += buckets[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(labels, bucketLE(i)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels,
		strconv.FormatFloat(float64(sumNs)/1e9, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, count)
}

// ServeHTTP makes a Registry an http.Handler for GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.Render(w)
}
