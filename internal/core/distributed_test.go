package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"cwcflow/internal/dff"
)

// startWorkers spins up an in-process virtual cluster of n sim workers on
// loopback TCP and returns their addresses.
func startWorkers(t *testing.T, ctx context.Context, n, simWorkers int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := dff.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		go func() {
			// Context cancellation is the expected shutdown path.
			_ = ServeSimWorkerOpts(ctx, l, SimWorkerOptions{
				SimWorkers: simWorkers,
				// Job handler errors after master disconnect are expected
				// during teardown; real failures surface on the master.
				OnError: func(err error) { t.Logf("worker: %v", err) },
			})
		}()
	}
	return addrs
}

func TestFactoryFor(t *testing.T) {
	for _, name := range []string{
		"neurospora", "neurospora-nrm", "neurospora-cwc",
		"lotka-volterra", "sir", "schlogl", "enzyme",
	} {
		f, err := FactoryFor(ModelRef{Name: name, Omega: 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := f(0, 1)
		if err != nil {
			t.Fatalf("%s: factory: %v", name, err)
		}
		if s.NumSpecies() < 1 {
			t.Fatalf("%s: no species", name)
		}
	}
	if _, err := FactoryFor(ModelRef{Name: "nope"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestDistributedMatchesSharedMemory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	model := ModelRef{Name: "neurospora", Omega: 20}
	cfg := smallConfig()
	cfg.Factory = nil // distributed master resolves it from the model ref

	// Shared-memory reference with the identical model and seeds.
	refCfg := cfg
	f, err := FactoryFor(model)
	if err != nil {
		t.Fatal(err)
	}
	refCfg.Factory = f
	ref := runMeans(t, refCfg)

	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	addrs := startWorkers(t, workerCtx, 3, 2)

	var got []float64
	info, err := RunDistributed(ctx, cfg, model, addrs, func(ws WindowStat) error {
		for k := range ws.PerCut {
			got = append(got, ws.PerCut[k][0].Mean)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("distributed produced %d means, shared-memory %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mean[%d]: distributed %g != shared %g", i, got[i], ref[i])
		}
	}
	if info.Cuts != 25 || info.Samples != int64(25*cfg.Trajectories) {
		t.Fatalf("info = %+v", info)
	}
	if info.Reactions == 0 {
		t.Fatal("worker trailers did not report reactions")
	}
}

func TestDistributedSingleWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	addrs := startWorkers(t, workerCtx, 1, 4)

	cfg := smallConfig()
	cfg.Factory = nil
	info, err := RunDistributed(ctx, cfg, ModelRef{Name: "sir"}, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Windows == 0 || info.Cuts == 0 {
		t.Fatalf("empty run: %+v", info)
	}
}

func TestDistributedUnknownModel(t *testing.T) {
	cfg := smallConfig()
	cfg.Factory = nil
	_, err := RunDistributed(context.Background(), cfg, ModelRef{Name: "bogus"}, []string{"127.0.0.1:1"}, nil)
	if err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestDistributedNoWorkers(t *testing.T) {
	cfg := smallConfig()
	_, err := RunDistributed(context.Background(), cfg, ModelRef{Name: "sir"}, nil, nil)
	if err == nil {
		t.Fatal("no workers accepted")
	}
}

func TestDistributedDialFailure(t *testing.T) {
	cfg := smallConfig()
	cfg.Factory = nil
	// A port nothing listens on: dial must fail fast with a clear error.
	_, err := RunDistributed(context.Background(), cfg, ModelRef{Name: "sir"}, []string{"127.0.0.1:1"}, nil)
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

func TestDistributedWorkerTeardownMidStream(t *testing.T) {
	// Cancelling the worker context mid-run must surface as an error on
	// the master (dropped connection), not a hang or silent truncation.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerCtx, stopWorkers := context.WithCancel(ctx)
	addrs := startWorkers(t, workerCtx, 2, 1)

	cfg := smallConfig()
	cfg.Factory = nil
	cfg.Trajectories = 16
	cfg.End = 100000 // far beyond what completes before teardown
	cfg.WindowSize = 4
	errc := make(chan error, 1)
	go func() {
		// Tear the workers down as soon as the first analysed window
		// proves the stream is live — deterministically mid-run.
		_, err := RunDistributed(ctx, cfg, ModelRef{Name: "neurospora", Omega: 50}, addrs,
			func(WindowStat) error {
				stopWorkers()
				return nil
			})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("master succeeded despite worker teardown")
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("master hit the test deadline instead of failing fast")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("master hung after worker teardown")
	}
}

func TestDistributedIdleTimeoutFailsFast(t *testing.T) {
	// A black-hole worker: accepts the connection, never answers. With
	// WorkerIdleTimeout set the master must fail the run quickly instead
	// of waiting on the silent stream forever.
	l, err := dff.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // keep it open, stay silent
		}
	}()

	cfg := smallConfig()
	cfg.Factory = nil
	cfg.WorkerIdleTimeout = 200 * time.Millisecond
	errc := make(chan error, 1)
	go func() {
		_, err := RunDistributed(context.Background(), cfg, ModelRef{Name: "sir"},
			[]string{l.Addr().String()}, nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("run succeeded against a silent worker")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("master hung on a silent worker despite the idle timeout")
	}
}
