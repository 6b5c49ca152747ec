package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/sim"
)

// stepGate meters a worker's SSA steps: budget steps pass, then every
// engine behind the gate blocks until open — a deterministically slow (or
// frozen) worker with no clock involved.
type stepGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	budget  int64         // steps still allowed; negative = unlimited
	blocked chan struct{} // closed when the first step blocks
	once    sync.Once
}

func newStepGate(budget int64) *stepGate {
	g := &stepGate{budget: budget, blocked: make(chan struct{})}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *stepGate) pass() {
	g.mu.Lock()
	for g.budget == 0 {
		g.once.Do(func() { close(g.blocked) })
		g.cond.Wait()
	}
	if g.budget > 0 {
		g.budget--
	}
	g.mu.Unlock()
}

func (g *stepGate) open() {
	g.mu.Lock()
	g.budget = -1
	g.cond.Broadcast()
	g.mu.Unlock()
}

// gatedSim is a real engine whose every step first passes the gate.
type gatedSim struct {
	sim.SnapshotSimulator
	gate *stepGate
}

func (s *gatedSim) Step() bool {
	s.gate.pass()
	return s.SnapshotSimulator.Step()
}

func (s *gatedSim) Steps() uint64 {
	return s.SnapshotSimulator.(interface{ Steps() uint64 }).Steps()
}

// gatedWorker is an in-process sim worker over the built-in models, its
// engines metered by gate; kill severs it like a crashed host.
type gatedWorker struct {
	addr   string
	gate   *stepGate
	cancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    []net.Conn
}

func (w *gatedWorker) Accept() (net.Conn, error) {
	c, err := w.listener.Accept()
	if err == nil {
		w.mu.Lock()
		w.conns = append(w.conns, c)
		w.mu.Unlock()
	}
	return c, err
}
func (w *gatedWorker) Close() error   { return w.listener.Close() }
func (w *gatedWorker) Addr() net.Addr { return w.listener.Addr() }

func (w *gatedWorker) kill() {
	w.cancel()
	w.listener.Close()
	w.mu.Lock()
	conns := w.conns
	w.conns = nil
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	w.gate.open() // release engines frozen mid-step so the farm can exit
}

func startGatedWorker(t *testing.T, simWorkers int, budget int64) *gatedWorker {
	t.Helper()
	l, err := dff.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &gatedWorker{addr: l.Addr().String(), gate: newStepGate(budget), cancel: cancel, listener: l}
	resolver := func(ref core.ModelRef) (core.SimulatorFactory, error) {
		f, err := core.FactoryFor(ref)
		if err != nil {
			return nil, err
		}
		return func(traj int, seed int64) (sim.Simulator, error) {
			s, err := f(traj, seed)
			if err != nil {
				return nil, err
			}
			return &gatedSim{SnapshotSimulator: s.(sim.SnapshotSimulator), gate: w.gate}, nil
		}, nil
	}
	go func() {
		_ = core.ServeSimWorkerOpts(ctx, w, core.SimWorkerOptions{SimWorkers: simWorkers, Resolver: resolver})
	}()
	t.Cleanup(w.kill)
	return w
}

// slabLog records a sharded job's slab events (Options.slabHook), each
// with the frontier's extent over unfinished trajectories at that moment,
// and lets a test wait for a condition over them without polling.
type slabLog struct {
	mu     sync.Mutex
	events []loggedSlab
	front  []int // per trajectory: frontier after its last accept
	done   []bool
	waits  []*slabWait
}

type loggedSlab struct {
	slabEvent
	lo, hi int // min and max frontier over unfinished trajectories
}

type slabWait struct {
	cond func(l *slabLog, e loggedSlab) bool
	hit  chan struct{}
}

func newSlabLog(trajectories int) *slabLog {
	return &slabLog{front: make([]int, trajectories), done: make([]bool, trajectories)}
}

func (l *slabLog) hook(ev slabEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.kind == "accept" {
		l.front[ev.traj], l.done[ev.traj] = ev.end, ev.done
	}
	e := loggedSlab{slabEvent: ev, lo: 1 << 30}
	for traj, next := range l.front {
		if !l.done[traj] {
			e.lo, e.hi = min(e.lo, next), max(e.hi, next)
		}
	}
	l.events = append(l.events, e)
	kept := l.waits[:0]
	for _, w := range l.waits {
		if w.cond(l, e) {
			close(w.hit)
		} else {
			kept = append(kept, w)
		}
	}
	l.waits = kept
}

// when returns a channel closed by the first event after which cond holds.
// cond runs under the log's mutex.
func (l *slabLog) when(cond func(l *slabLog, e loggedSlab) bool) <-chan struct{} {
	w := &slabWait{cond: cond, hit: make(chan struct{})}
	l.mu.Lock()
	l.waits = append(l.waits, w)
	l.mu.Unlock()
	return w.hit
}

func (l *slabLog) snapshot() []loggedSlab {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]loggedSlab(nil), l.events...)
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func jobDigest(t *testing.T, j *Job) string {
	t.Helper()
	windows, first := j.resultsSnapshot()
	if first != 0 {
		t.Fatalf("result ring evicted windows (first=%d)", first)
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range windows {
		if err := enc.Encode(&windows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// localDigest runs spec on a plain single-process server.
func localDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	svc, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, j.Done(), "the reference job")
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("reference job ended %s (%s)", st.State, st.Error)
	}
	return jobDigest(t, j)
}

func slabSpec() JobSpec {
	// 49 samples per trajectory: six 8-sample rounds and a one-sample tail.
	return JobSpec{Model: "neurospora", Omega: 20, Trajectories: 8, End: 24, Period: 0.5, WindowSize: 8, Seed: 11}
}

// TestSlabSkewBoundedByTwoWindows is the breadth-first property: with a
// worker that accepts its slabs and then freezes, the rest of the ensemble
// advances exactly two windows and waits — no trajectory passes sample
// 2×WindowSize until every trajectory has delivered window 0 — and at every
// admitted delivery of the whole job the frontier's extent over unfinished
// trajectories is at most two windows.
func TestSlabSkewBoundedByTwoWindows(t *testing.T) {
	spec := slabSpec()
	const held, w = 2, 8 // slabs the frozen worker holds; window size
	want := localDigest(t, spec)

	frozen := startGatedWorker(t, 1, 0)
	log := newSlabLog(spec.Trajectories)
	svc, err := New(Options{Workers: 2, WorkerAddrs: []string{frozen.addr}, WorkerInFlight: held, slabHook: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Everything the frozen worker does not hold ends up two windows in
	// (or, were the gate broken, beyond — the check below then says so).
	stalled := log.when(func(l *slabLog, e loggedSlab) bool {
		n := 0
		for _, next := range l.front {
			if next == 2*w {
				n++
			}
		}
		return n == spec.Trajectories-held || e.hi > 2*w
	})
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, stalled, "the free trajectories to reach two windows")
	for _, e := range log.snapshot() {
		if e.kind == "accept" && (e.hi > 2*w || e.lo != 0) {
			t.Fatalf("with %d trajectories frozen at 0, saw frontier extent [%d,%d]", held, e.lo, e.hi)
		}
	}
	if st := j.Status(); st.Progress.Windows != 0 || st.Progress.TasksDone != 0 {
		t.Fatalf("windows published with trajectories still at sample 0: %+v", st.Progress)
	}

	frozen.gate.open()
	await(t, j.Done(), "the job after thawing the worker")
	if st := j.Status(); st.State != StateDone || st.Progress.RequeuedTasks != 0 {
		t.Fatalf("job ended %s (%s), %d requeues", st.State, st.Error, st.Progress.RequeuedTasks)
	}
	if got := jobDigest(t, j); got != want {
		t.Fatalf("digest %s != single-process %s", got, want)
	}
	accepts := 0
	for _, e := range log.snapshot() {
		if e.kind != "accept" {
			continue
		}
		accepts++
		if e.hi-e.lo > 2*w {
			t.Fatalf("trajectory %d accepted [%d,%d) with frontier extent [%d,%d]: skew over two windows", e.traj, e.start, e.end, e.lo, e.hi)
		}
		if e.hi > 2*w && e.lo < w {
			t.Fatalf("a trajectory passed sample %d while another was still at %d: window 0 incomplete", e.hi, e.lo)
		}
	}
	if accepts == 0 {
		t.Fatal("the slab hook saw no deliveries")
	}
}

// TestKilledWorkerCostsOnlyItsSlabs: a worker that dies mid-job holding
// slabs costs exactly those slabs — they requeue from the snapshots their
// heads still hold — where run-to-completion assignment replayed whole
// trajectories. Re-simulation is measured as samples granted beyond the
// job's own size.
func TestKilledWorkerCostsOnlyItsSlabs(t *testing.T) {
	spec := slabSpec()
	spec.Trajectories = 12
	const held, w, samples = 3, 8, 49
	want := localDigest(t, spec)

	// The victim freezes mid-job, after a few slabs' worth of steps.
	victim := startGatedWorker(t, 1, 4000)
	log := newSlabLog(spec.Trajectories)
	svc, err := New(Options{Workers: 2, WorkerAddrs: []string{victim.addr}, WorkerInFlight: held, slabHook: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, victim.gate.blocked, "the victim to freeze")
	victim.kill()
	await(t, j.Done(), "the job after the worker's death")
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if got := jobDigest(t, j); got != want {
		t.Fatalf("digest %s != single-process %s", got, want)
	}
	requeued := int(st.Progress.RequeuedTasks)
	if requeued < 1 || requeued > held {
		t.Fatalf("%d slabs requeued, want 1..%d (the victim's in-flight slabs)", requeued, held)
	}
	granted := 0
	for _, e := range log.snapshot() {
		if e.kind == "grant" {
			granted += e.end - e.start
		}
	}
	resim := granted - spec.Trajectories*samples
	if resim < 1 || resim > requeued*w {
		t.Fatalf("re-simulated %d samples for %d lost slabs of at most %d samples", resim, requeued, w)
	}
}

// TestCongestedIngressParksReaderWithoutPolling: with the job's analysis
// blocked, remote results pile up to the ingress high-water mark and the
// connection's reader parks on the scheduler's condition variable; the
// windower's low-water kick — not a timer — resumes it, and the digest is
// unchanged.
func TestCongestedIngressParksReaderWithoutPolling(t *testing.T) {
	spec := slabSpec()
	want := localDigest(t, spec)

	worker := startGatedWorker(t, 2, -1)
	log := newSlabLog(spec.Trajectories)
	release := make(chan struct{})
	svc, err := New(Options{
		Workers: 1, StatEngines: 1, SampleBuffer: 2,
		WorkerAddrs: []string{worker.addr}, WorkerInFlight: 8,
		slabHook: log.hook,
		statHook: func(string) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	parked := log.when(func(_ *slabLog, e loggedSlab) bool { return e.kind == "park" })
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, parked, "a reader to park on the congested ingress")
	close(release)
	await(t, j.Done(), "the job after analysis resumed")
	if st := j.Status(); st.State != StateDone || st.Progress.SpilledBatches != 0 {
		t.Fatalf("job ended %s (%s), %d spilled", st.State, st.Error, st.Progress.SpilledBatches)
	}
	if got := jobDigest(t, j); got != want {
		t.Fatalf("digest %s != single-process %s", got, want)
	}
}
