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
	"cwcflow/internal/store"
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

// slabLog records a job's slab events (Options.slabHook), each
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

// gatedTrajectory0 resolves the built-in models with trajectory 0's engine
// behind gate.
func gatedTrajectory0(gate *stepGate) func(core.ModelRef) (core.SimulatorFactory, error) {
	return func(ref core.ModelRef) (core.SimulatorFactory, error) {
		f, err := core.FactoryFor(ref)
		if err != nil {
			return nil, err
		}
		return func(traj int, seed int64) (sim.Simulator, error) {
			s, err := f(traj, seed)
			if err != nil || traj != 0 {
				return s, err
			}
			return &gatedSim{SnapshotSimulator: s.(sim.SnapshotSimulator), gate: gate}, nil
		}, nil
	}
}

// TestSlabSkewBoundedByTwoWindows is the breadth-first property: with some
// trajectories frozen at sample 0 — held by a worker that accepts its
// slabs and then freezes, or, with no worker at all, by an engine that
// freezes on the local pool — the rest of the ensemble advances exactly
// two windows and waits: no trajectory passes sample 2×WindowSize until
// every trajectory has delivered window 0, and at every admitted delivery
// of the whole job the frontier's extent over unfinished trajectories is
// at most two windows.
func TestSlabSkewBoundedByTwoWindows(t *testing.T) {
	spec := slabSpec()
	const w = 8 // window size
	want := localDigest(t, spec)

	for _, tc := range []struct {
		name   string
		remote bool
	}{
		{name: "remote", remote: true},
		{name: "local"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := newSlabLog(spec.Trajectories)
			opts := Options{Workers: 2, slabHook: log.hook}
			var gate *stepGate
			var held int // trajectories frozen at sample 0
			if tc.remote {
				frozen := startGatedWorker(t, 1, 0)
				gate, held = frozen.gate, 2
				opts.WorkerAddrs, opts.WorkerInFlight = []string{frozen.addr}, held
			} else {
				gate, held = newStepGate(0), 1
				opts.Resolver = gatedTrajectory0(gate)
			}
			svc, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(svc.Close)
			t.Cleanup(gate.open) // first: a frozen pool worker would hold up Close
			// Everything not held ends up two windows in (or, were the gate
			// broken, beyond — the check below then says so).
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

			gate.open()
			await(t, j.Done(), "the job after thawing the frozen trajectories")
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
		})
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
// blocked, results pile up to the ingress high-water mark and the
// scheduler stops granting: a remote connection's reader parks on the
// scheduler's condition variable, and a local slab already granted ends
// without running. The windower's low-water kick — not a timer; a local
// job has none — resumes both, and the digest is unchanged.
func TestCongestedIngressParksReaderWithoutPolling(t *testing.T) {
	spec := slabSpec()
	want := localDigest(t, spec)

	for _, tc := range []struct {
		name   string
		remote bool
	}{
		{name: "remote", remote: true},
		{name: "local"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := newSlabLog(spec.Trajectories)
			release := make(chan struct{})
			opts := Options{
				Workers: 1, StatEngines: 1, SampleBuffer: 2,
				slabHook: log.hook,
				statHook: func(string) { <-release },
			}
			if tc.remote {
				worker := startGatedWorker(t, 2, -1)
				opts.WorkerAddrs, opts.WorkerInFlight = []string{worker.addr}, 8
			}
			svc, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			parked := log.when(func(_ *slabLog, e loggedSlab) bool { return e.kind == "park" })
			j, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.remote {
				await(t, parked, "a reader to park on the congested ingress")
			} else {
				deadline := time.Now().Add(30 * time.Second)
				for j.deferred.Load() == 0 {
					if time.Now().After(deadline) {
						t.Fatal("no local slab ended unrun on the congested ingress")
					}
					time.Sleep(time.Millisecond)
				}
			}
			close(release)
			await(t, j.Done(), "the job after analysis resumed")
			if st := j.Status(); st.State != StateDone || st.Progress.SpilledBatches != 0 {
				t.Fatalf("job ended %s (%s), %d spilled", st.State, st.Error, st.Progress.SpilledBatches)
			}
			if got := jobDigest(t, j); got != want {
				t.Fatalf("digest %s != single-process %s", got, want)
			}
		})
	}
}

// TestResumeAtLastSampleFinishesOnWorker: a job that crashed after
// journaling its last window but before its terminal record recovers with
// every trajectory's frontier at its end. The slabs the scheduler then
// sends to a worker add no sample, but their completions must still count:
// the job finishes done, on the worker, with the uninterrupted digest.
func TestResumeAtLastSampleFinishesOnWorker(t *testing.T) {
	spec := slabSpec()
	ref, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, rj.Done(), "the reference job")
	want := jobDigest(t, rj)
	windows, _ := rj.resultsSnapshot()

	// The crash image: the submission and every window, no terminal record.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(id, time.Now(), specJSON, DefaultTenant); err != nil {
		t.Fatal(err)
	}
	for i := range windows {
		if err := st.AppendWindow(id, i, &windows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	worker := startGatedWorker(t, 1, -1)
	// No watchdog rescue within the test: a dropped completion would hang.
	svc, err := New(Options{Workers: 1, DataDir: dir, WorkerAddrs: []string{worker.addr}, WorkerTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, ok := svc.Get(id)
	if !ok {
		t.Fatalf("job %s not recovered", id)
	}
	await(t, j.Done(), "the recovered job")
	if st := j.Status(); st.State != StateDone || st.Progress.RemoteTasksDone == 0 {
		t.Fatalf("recovered job ended %s (%s) with %d trajectories finished remotely, want done with some", st.State, st.Error, st.Progress.RemoteTasksDone)
	}
	if got := jobDigest(t, j); got != want {
		t.Fatalf("digest %s != uninterrupted %s", got, want)
	}
}
