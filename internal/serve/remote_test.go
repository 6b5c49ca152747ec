package serve_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"cwcflow/internal/chaos"
	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/serve"
	"cwcflow/internal/sim"
)

// walkSim is a deterministic synthetic simulator whose trajectory depends
// on its seed: three species on an xorshift walk, advancing time by dt and
// sleeping delay per step so jobs stay observable mid-flight. Identical
// (traj, seed) pairs produce bit-identical trajectories wherever they run
// — the property remote sharding and requeue determinism rest on.
type walkSim struct {
	t     float64
	dt    float64
	delay time.Duration
	rng   uint64
	state [3]int64
}

func (s *walkSim) Time() float64 { return s.t }
func (s *walkSim) Step() bool {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.t += s.dt
	for i := range s.state {
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		s.state[i] += int64(s.rng%7) - 3
	}
	return true
}
func (s *walkSim) NumSpecies() int     { return 3 }
func (s *walkSim) Observe(out []int64) { copy(out, s.state[:]) }

// walkResolver serves the "walk" model on both the serve side and the sim
// workers, so a test cluster runs the same synthetic model everywhere.
func walkResolver(delay time.Duration) core.ModelResolver {
	return func(ref core.ModelRef) (core.SimulatorFactory, error) {
		if ref.Name != "walk" {
			return core.FactoryFor(ref)
		}
		return func(traj int, seed int64) (sim.Simulator, error) {
			return &walkSim{dt: 0.25, delay: delay, rng: uint64(seed)*0x9e3779b97f4a7c15 + 1}, nil
		}, nil
	}
}

func walkSpec() serve.JobSpec {
	return serve.JobSpec{
		Model:        "walk",
		Trajectories: 8,
		End:          8,
		Period:       0.25,
		WindowSize:   8,
		WindowStep:   8,
		Seed:         42,
	}
}

// killableWorker is one in-process cwc-dist-style sim worker whose
// listener tracks accepted connections, so a test can sever it mid-job
// the way a crashed worker host would.
type killableWorker struct {
	addr   string
	cancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    []net.Conn
}

func (w *killableWorker) Accept() (net.Conn, error) {
	c, err := w.listener.Accept()
	if err == nil {
		w.mu.Lock()
		w.conns = append(w.conns, c)
		w.mu.Unlock()
	}
	return c, err
}
func (w *killableWorker) Close() error   { return w.listener.Close() }
func (w *killableWorker) Addr() net.Addr { return w.listener.Addr() }

// kill severs the worker: listener and every established connection close,
// so in-flight streams error out on the serve side immediately.
func (w *killableWorker) kill() {
	w.cancel()
	w.listener.Close()
	w.mu.Lock()
	conns := w.conns
	w.conns = nil
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// startWorker runs one sim worker on loopback with the given resolver.
func startWorker(t *testing.T, simWorkers int, resolver core.ModelResolver) *killableWorker {
	t.Helper()
	l, err := dff.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &killableWorker{addr: l.Addr().String(), cancel: cancel, listener: l}
	go func() {
		// Teardown errors (severed connections) are expected; real failures
		// surface on the serve side as requeues or job errors.
		_ = core.ServeSimWorkerOpts(ctx, w, core.SimWorkerOptions{SimWorkers: simWorkers, Resolver: resolver})
	}()
	t.Cleanup(w.kill)
	return w
}

// runToDigest submits spec, waits for completion, and returns the final
// status plus a digest of the full window-stats stream.
func runToDigest(t *testing.T, base string, spec serve.JobSpec) (serve.Status, string) {
	t.Helper()
	st := submitJob(t, base, spec)
	resp, err := http.Get(base + "/jobs/" + st.ID + "/result?wait=true")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var res struct {
		Status      serve.Status      `json:"status"`
		FirstWindow int               `json:"first_window"`
		Windows     []core.WindowStat `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.FirstWindow != 0 {
		t.Fatalf("result ring evicted windows (first=%d); grow ResultBuffer", res.FirstWindow)
	}
	return res.Status, windowDigest(t, res.Windows)
}

// windowDigest is the determinism pin: a hash over the canonical JSON of
// every analysed window, in window order.
func windowDigest(t *testing.T, windows []core.WindowStat) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range windows {
		if err := enc.Encode(&windows[i]); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func newRemoteServer(t *testing.T, delay time.Duration, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	opts.Resolver = func(ref core.ModelRef) (core.SimulatorFactory, error) {
		return walkResolver(delay)(ref)
	}
	svc, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	mux := svc.Handler()
	ts := newHTTPServer(t, mux)
	t.Cleanup(svc.Close)
	return svc, ts
}

func newHTTPServer(t *testing.T, h http.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return "http://" + l.Addr().String()
}

// TestRemoteShardingDigestMatchesLocal is the acceptance pin: the same
// spec produces a bit-identical window-stats digest whether the job runs
// single-process or sharded into slabs across remote sim workers — for the
// synthetic walk and the CWC term rewriter (engines that cannot snapshot:
// run-to-the-end slabs) and for both SSA-engine models (window-sized slabs
// migrating between sites), on one worker and on three, with and without
// delivery-layer faults (duplicated and delayed results, one severed
// connection) for the requeue and dedup machinery to absorb.
func TestRemoteShardingDigestMatchesLocal(t *testing.T) {
	specs := map[string]serve.JobSpec{
		"walk":           walkSpec(),
		"sir":            {Model: "sir", Trajectories: 16, End: 12, Period: 0.5, WindowSize: 8, Seed: 42},
		"neurospora":     {Model: "neurospora", Omega: 20, Trajectories: 12, End: 12, Period: 0.5, WindowSize: 8, Seed: 42},
		"neurospora-cwc": {Model: "neurospora-cwc", Omega: 5, Trajectories: 6, End: 6, Period: 0.5, WindowSize: 4, Seed: 42},
	}
	for model, spec := range specs {
		t.Run(model, func(t *testing.T) {
			_, refURL := newRemoteServer(t, 0, serve.Options{})
			refSt, refDigest := runToDigest(t, refURL, spec)
			if refSt.State != serve.StateDone {
				t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
			}
			if refSt.Progress.RemoteTasksDone != 0 {
				t.Fatalf("reference job used remote workers: %+v", refSt.Progress)
			}
			for _, workers := range []int{1, 3} {
				for _, faults := range []bool{false, true} {
					t.Run(fmt.Sprintf("workers=%d/chaos=%v", workers, faults), func(t *testing.T) {
						opts := serve.Options{WorkerInFlight: 2}
						for i := 0; i < workers; i++ {
							opts.WorkerAddrs = append(opts.WorkerAddrs, startWorker(t, 2, walkResolver(0)).addr)
						}
						var inj *chaos.Injector
						if faults {
							inj = chaos.New(7)
							inj.Arm(chaos.RecvDup, chaos.Rule{Prob: 0.5})
							inj.Arm(chaos.RecvDelay, chaos.Rule{Prob: 0.3, Delay: time.Millisecond})
							inj.Arm(chaos.RecvDrop, chaos.Rule{Prob: 1, After: 6, Limit: 1})
							opts.Chaos = inj
						}
						_, distURL := newRemoteServer(t, 0, opts)
						distSt, distDigest := runToDigest(t, distURL, spec)
						if distSt.State != serve.StateDone {
							t.Fatalf("sharded job: %s (%s)", distSt.State, distSt.Error)
						}
						if distDigest != refDigest {
							t.Fatalf("window digest diverged:\n  local  %s\n  remote %s", refDigest, distDigest)
						}
						if distSt.Progress.Windows != refSt.Progress.Windows {
							t.Fatalf("window counts diverged: local %d, remote %d",
								refSt.Progress.Windows, distSt.Progress.Windows)
						}
						if !faults && distSt.Progress.RemoteTasksDone == 0 {
							t.Fatal("job did not shard onto remote workers")
						}
						if faults && inj.Fired(chaos.RecvDup)+inj.Fired(chaos.RecvDelay)+inj.Fired(chaos.RecvDrop) == 0 {
							t.Fatal("chaos injector never fired; the run exercised nothing")
						}
					})
				}
			}
		})
	}
}

// TestDistributedWindowsMatchCoreRun pins the porting claim end to end:
// the windows a job streams through Follow are reflect.DeepEqual to the
// shared-memory core.Run of the same configuration, whether the job runs
// on the local pool alone, sharded over two sim workers, or against a
// worker that cannot be dialled (the job falls back to the local pool).
// The models cover both SSA engines (slabs migrate as snapshots) and the
// CWC term rewriter (no snapshots: one run-to-the-end slab per trajectory).
func TestDistributedWindowsMatchCoreRun(t *testing.T) {
	specs := []serve.JobSpec{
		{Model: "sir", Trajectories: 16, End: 12, Period: 0.5, WindowSize: 8, Seed: 42},
		{Model: "neurospora", Omega: 20, Trajectories: 12, End: 12, Period: 0.5, WindowSize: 8, Seed: 42},
		{Model: "neurospora-cwc", Omega: 5, Trajectories: 6, End: 6, Period: 0.5, WindowSize: 4, Seed: 42},
	}
	unreachable := func(t *testing.T) []string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		return []string{l.Addr().String()}
	}
	placements := []struct {
		name    string
		workers func(t *testing.T) []string
		remote  bool
	}{
		{"local", func(*testing.T) []string { return nil }, false},
		{"2-workers", func(t *testing.T) []string {
			return []string{startWorker(t, 2, core.FactoryFor).addr, startWorker(t, 2, core.FactoryFor).addr}
		}, true},
		{"unreachable-worker", unreachable, false},
	}
	for _, spec := range specs {
		factory, err := core.FactoryFor(core.ModelRef{Name: spec.Model, Omega: spec.Omega})
		if err != nil {
			t.Fatal(err)
		}
		var want []core.WindowStat
		cfg := core.Config{
			Factory: factory, Trajectories: spec.Trajectories, End: spec.End, Period: spec.Period,
			WindowSize: spec.WindowSize, BaseSeed: spec.Seed, SimWorkers: 2, StatEngines: 2,
		}
		if _, err := core.Run(context.Background(), cfg, func(ws core.WindowStat) error {
			want = append(want, ws)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, p := range placements {
			t.Run(spec.Model+"/"+p.name, func(t *testing.T) {
				svc, err := serve.New(serve.Options{Workers: 2, WorkerAddrs: p.workers(t), WorkerInFlight: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				job, err := svc.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				var got []core.WindowStat
				lost, err := job.Follow(context.Background(), 0, nil, func(ws core.WindowStat) error {
					got = append(got, ws)
					return nil
				})
				st := job.Status()
				if err != nil || lost != 0 || st.State != serve.StateDone {
					t.Fatalf("job %s (%s): err=%v lost=%d", st.State, st.Error, err, lost)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d windows differ from core.Run's %d", len(got), len(want))
				}
				if remote := st.Progress.RemoteTasksDone > 0; remote != p.remote {
					t.Fatalf("remote_tasks_done = %d, want remote work %v", st.Progress.RemoteTasksDone, p.remote)
				}
			})
		}
	}
}

// TestRemoteWorkerKilledMidJobRequeues kills one of two workers while the
// job is streaming: the job must complete via requeue with no lost or
// duplicated windows, and the digest must still match a single-process
// run of the same seed.
func TestRemoteWorkerKilledMidJobRequeues(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	refSt, refDigest := runToDigest(t, refURL, walkSpec())
	if refSt.State != serve.StateDone {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}

	// The victim worker simulates slowly so it is guaranteed to hold
	// in-flight trajectories when killed; the survivor and the local pool
	// are fast, so the re-runs do not stretch the test.
	victim := startWorker(t, 1, walkResolver(3*time.Millisecond))
	survivor := startWorker(t, 2, walkResolver(0))
	svc, distURL := newRemoteServer(t, 0, serve.Options{
		WorkerAddrs:    []string{victim.addr, survivor.addr},
		WorkerInFlight: 4,
	})
	st := submitJob(t, distURL, walkSpec())
	job, ok := svc.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not registered", st.ID)
	}

	// Kill the victim as soon as samples prove the job is streaming.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := getStatus(t, distURL, st.ID); s.Progress.Samples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started streaming")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill()

	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete after worker death")
	}
	final, digest := runStatusAndDigest(t, distURL, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Progress.RequeuedTasks == 0 {
		t.Fatal("no trajectories were requeued off the killed worker")
	}
	if final.Progress.Windows != refSt.Progress.Windows {
		t.Fatalf("lost or duplicated windows: got %d, want %d",
			final.Progress.Windows, refSt.Progress.Windows)
	}
	if digest != refDigest {
		t.Fatalf("digest diverged after requeue:\n  local  %s\n  requeue %s", refDigest, digest)
	}
}

// runStatusAndDigest fetches a finished job's result and digests it.
func runStatusAndDigest(t *testing.T, base, id string) (serve.Status, string) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res struct {
		Status  serve.Status      `json:"status"`
		Windows []core.WindowStat `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res.Status, windowDigest(t, res.Windows)
}

// TestRemoteAllWorkersDeadFallsBackLocal: when the only worker dies
// mid-job, everything requeues onto the local pool and the job still
// completes with the reference digest.
func TestRemoteAllWorkersDeadFallsBackLocal(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	refSt, refDigest := runToDigest(t, refURL, walkSpec())

	victim := startWorker(t, 1, walkResolver(3*time.Millisecond))
	svc, distURL := newRemoteServer(t, 0, serve.Options{
		WorkerAddrs:    []string{victim.addr},
		WorkerInFlight: 8,
	})
	st := submitJob(t, distURL, walkSpec())
	job, _ := svc.Get(st.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := getStatus(t, distURL, st.ID); s.Progress.Samples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started streaming")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete after losing every worker")
	}
	final, digest := runStatusAndDigest(t, distURL, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if digest != refDigest || final.Progress.Windows != refSt.Progress.Windows {
		t.Fatalf("fallback run diverged: %d windows (want %d), digest match %v",
			final.Progress.Windows, refSt.Progress.Windows, digest == refDigest)
	}
}

// TestRemoteSilentWorkerTimesOutAndRequeues: a worker that accepts the
// stream but never produces results is declared dead by the watchdog and
// its trajectories complete elsewhere.
func TestRemoteSilentWorkerTimesOutAndRequeues(t *testing.T) {
	// A black hole: accepts connections, reads nothing, sends nothing.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var holeConns []net.Conn
	var holeMu sync.Mutex
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			holeMu.Lock()
			holeConns = append(holeConns, c)
			holeMu.Unlock()
		}
	}()
	defer func() {
		holeMu.Lock()
		for _, c := range holeConns {
			c.Close()
		}
		holeMu.Unlock()
	}()

	svc, distURL := newRemoteServer(t, 0, serve.Options{
		WorkerAddrs:    []string{l.Addr().String()},
		WorkerInFlight: 8,
		WorkerTimeout:  200 * time.Millisecond,
	})
	st := submitJob(t, distURL, walkSpec())
	job, _ := svc.Get(st.ID)
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete despite the silent worker")
	}
	final := getStatus(t, distURL, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Progress.RequeuedTasks == 0 {
		t.Fatal("silent worker's trajectories were never requeued")
	}
}

// TestWorkerRegisterEndpoint: dynamic registration shows up in /workers
// and healthz, expires after the TTL, and a refreshed heartbeat revives
// it.
func TestWorkerRegisterEndpoint(t *testing.T) {
	w := startWorker(t, 1, walkResolver(0))
	_, base := newRemoteServer(t, 0, serve.Options{
		WorkerTTL: 100 * time.Millisecond,
	})
	register := func() {
		body := fmt.Sprintf(`{"addr":%q,"cap":3}`, w.addr)
		resp, err := http.Post(base+"/workers/register", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: status %d", resp.StatusCode)
		}
	}
	register()

	var infos []serve.WorkerInfo
	resp, err := http.Get(base + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || !infos[0].Alive || infos[0].Cap != 3 || infos[0].Static {
		t.Fatalf("worker listing: %+v", infos)
	}

	// Expiry: past the TTL the worker is listed but not alive, and a job
	// submitted then still completes (local fallback).
	time.Sleep(150 * time.Millisecond)
	resp, err = http.Get(base + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	infos = nil
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Alive {
		t.Fatalf("worker should have expired: %+v", infos)
	}
	st, _ := runToDigest(t, base, walkSpec())
	if st.State != serve.StateDone || st.Progress.RemoteTasksDone != 0 {
		t.Fatalf("post-expiry job: %s, remote=%d", st.State, st.Progress.RemoteTasksDone)
	}

	// A fresh heartbeat revives it and jobs shard again. A new seed keeps
	// the spec distinct from the pre-expiry run, which is cached.
	revived := walkSpec()
	revived.Seed = 7
	register()
	st2, _ := runToDigest(t, base, revived)
	if st2.State != serve.StateDone {
		t.Fatalf("post-revival job: %s (%s)", st2.State, st2.Error)
	}
	if st2.Progress.RemoteTasksDone == 0 {
		t.Fatal("revived worker received no trajectories")
	}

	// Bad register bodies are 400s.
	resp, err = http.Post(base+"/workers/register", "application/json",
		bytes.NewReader([]byte(`{"cap":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register without addr: status %d", resp.StatusCode)
	}
}
