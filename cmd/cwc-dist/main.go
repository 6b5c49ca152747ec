// Command cwc-dist runs the distributed CWC simulator: sim-worker
// processes (the paper's farm of simulation pipelines) and a master that
// spreads one run over them. The master is a command-line client of the
// job service's slab scheduler (package serve, in process): it shards the
// run into window-sized slabs across the workers and its own cores, runs
// the analysis pipeline locally and prints the windows as CSV. A lost
// worker costs only the slabs it held, which requeue.
//
// Start workers first, then the master:
//
//	cwc-dist worker -listen 127.0.0.1:7001 -sim-workers 4
//	cwc-dist worker -listen 127.0.0.1:7002 -sim-workers 4
//	cwc-dist master -workers 127.0.0.1:7001,127.0.0.1:7002 \
//	         -model neurospora -trajectories 128 -end 48 -period 0.5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"cwcflow/internal/buildinfo"
	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/obs"
	"cwcflow/internal/serve"
	"cwcflow/internal/window"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cwc-dist:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: cwc-dist worker|master [flags] (or -version)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch os.Args[1] {
	case "worker":
		return runWorker(ctx, os.Args[2:])
	case "master":
		return runMaster(ctx, os.Args[2:])
	case "version", "-version", "--version":
		fmt.Println("cwc-dist", buildinfo.Version)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want worker or master)", os.Args[1])
	}
}

func runWorker(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7001", "address to listen on")
	simWorkers := fs.Int("sim-workers", 4, "local simulation farm width")
	register := fs.String("register", "", "cwc-serve base URL to register with (heartbeats every ttl/3)")
	advertise := fs.String("advertise", "", "dialable address to advertise when registering (default the listen address)")
	inflight := fs.Int("inflight", 0, "in-flight slab cap to advertise (0 = server default)")
	maxJobs := fs.Int("max-jobs", 0, "maximum concurrent job connections served (0 = unlimited); excess connections are refused and rerouted by the master")
	debugAddr := fs.String("debug-addr", "", "HTTP listen address for GET /metrics and /debug/pprof (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := dff.Listen(*listen)
	if err != nil {
		return err
	}
	addr := *advertise
	if addr == "" {
		addr = l.Addr().String()
	}
	if *register != "" {
		go heartbeat(ctx, *register, addr, *inflight)
	}
	reg := obs.NewRegistry()
	metrics := core.WorkerMetrics{
		Quantum: reg.Histogram("cwc_worker_quantum_seconds", "Service time of one simulation quantum on this worker."),
		Tasks:   reg.Counter("cwc_worker_tasks_total", "Trajectories completed by this worker."),
		Jobs:    reg.Gauge("cwc_worker_jobs", "Job streams currently served."),
	}
	if *debugAddr != "" {
		go serveDebug("worker", *debugAddr, reg)
	}
	fmt.Fprintf(os.Stderr, "sim worker listening on %s (%d engines); ^C to stop\n", l.Addr(), *simWorkers)
	err = core.ServeSimWorkerOpts(ctx, l, core.SimWorkerOptions{
		SimWorkers: *simWorkers,
		MaxJobs:    *maxJobs,
		Resolver:   core.FactoryFor,
		OnError:    func(err error) { fmt.Fprintln(os.Stderr, "job error:", err) },
		Origin:     addr,
		Metrics:    metrics,
	})
	if err == context.Canceled {
		return nil
	}
	return err
}

// serveDebug runs the metrics+pprof listener for one process role; a bind
// failure is reported, never fatal — observability must not take the
// worker down.
func serveDebug(role, addr string, reg *obs.Registry) {
	if err := http.ListenAndServe(addr, obs.NewDebugMux(reg)); err != nil {
		fmt.Fprintf(os.Stderr, "cwc-dist %s: debug listener: %v\n", role, err)
	}
}

// heartbeat registers the worker with a cwc-serve instance and keeps the
// registration fresh: POST /workers/register doubles as the heartbeat, and
// the server replies with the TTL that paces the next beat. A bounded
// client keeps a hung server from wedging the loop, and rejections are
// logged instead of silently dropping the worker out of the cluster.
func heartbeat(ctx context.Context, base, addr string, inflight int) {
	client := &http.Client{Timeout: 5 * time.Second}
	interval := 5 * time.Second
	body := fmt.Sprintf(`{"addr":%q,"cap":%d}`, addr, inflight)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/workers/register", strings.NewReader(body))
		if err != nil {
			fmt.Fprintln(os.Stderr, "register:", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintln(os.Stderr, "register:", err)
		case resp.StatusCode != http.StatusOK:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "register: server rejected %s: %s %s\n", addr, resp.Status, strings.TrimSpace(string(msg)))
		default:
			var ack struct {
				TTLSeconds float64 `json:"ttl_seconds"`
			}
			if json.NewDecoder(resp.Body).Decode(&ack) == nil && ack.TTLSeconds > 0 {
				interval = time.Duration(ack.TTLSeconds / 3 * float64(time.Second))
			}
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

func runMaster(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("master", flag.ContinueOnError)
	var (
		workers       = fs.String("workers", "", "comma-separated sim worker addresses")
		model         = fs.String("model", "neurospora", "model name (see cwc-sim -help)")
		omega         = fs.Float64("omega", 100, "system size")
		traj          = fs.Int("trajectories", 128, "Monte Carlo ensemble size")
		end           = fs.Float64("end", 48, "simulated horizon")
		quantum       = fs.Float64("quantum", 0, "simulation quantum (0 = one sampling period)")
		period        = fs.Float64("period", 0.5, "sampling period τ")
		statEngines   = fs.Int("stat-engines", 4, "statistics farm width on the master")
		winSize       = fs.Int("window", 16, "sliding window size (cuts)")
		seed          = fs.Int64("seed", 1, "base RNG seed")
		workerTimeout = fs.Duration("worker-timeout", 0, "requeue a worker's slabs once it sends nothing for this long (0 = the job service's default, 30s)")
		debugAddr     = fs.String("debug-addr", "", "HTTP listen address for GET /metrics and /debug/pprof (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers == "" {
		return fmt.Errorf("master needs -workers")
	}
	addrs := strings.Split(*workers, ",")
	// The run is one job on an in-process job service, sized for it: the
	// result ring and the subscriber mailbox each hold every window, so
	// none can be evicted or dropped before it is printed.
	cuts := int(*end / *period) + 1
	windows := window.WindowCount(cuts, *winSize, *winSize)
	svc, err := serve.New(serve.Options{
		StatEngines:      *statEngines,
		ResultBuffer:     windows,
		SubscriberBuffer: windows,
		MaxTrajectories:  *traj,
		MaxCuts:          cuts,
		WorkerAddrs:      addrs,
		WorkerTimeout:    *workerTimeout,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	if *debugAddr != "" {
		go serveDebug("master", *debugAddr, svc.Metrics())
	}
	start := time.Now()
	job, err := svc.Submit(serve.JobSpec{
		Model: *model, Omega: *omega, Trajectories: *traj, End: *end, Quantum: *quantum,
		Period: *period, WindowSize: *winSize, Seed: *seed,
	})
	if err != nil {
		return err
	}
	lost, err := job.Follow(ctx, 0, nil, core.CSVDisplay(os.Stdout, nil))
	if err != nil {
		return err
	}
	st := job.Status()
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	if lost > 0 {
		return fmt.Errorf("%d windows were lost before they could be printed", lost)
	}
	p := st.Progress
	fmt.Fprintf(os.Stderr,
		"done in %v over %d workers: %d trajectories, %d cuts, %d windows, %d samples, %d reactions; remote_tasks_done=%d requeued_tasks=%d\n",
		time.Since(start).Round(time.Millisecond), len(addrs),
		p.Trajectories, p.Cuts, p.Windows, p.Samples, p.Reactions, p.RemoteTasksDone, p.RequeuedTasks)
	return nil
}
