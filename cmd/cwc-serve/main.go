// Command cwc-serve runs the CWC simulation job service: an HTTP server
// that accepts simulation jobs, schedules their trajectories onto one
// shared simulation worker pool — and, when remote sim workers are
// configured, shards trajectory quanta across the cluster — streaming
// windowed statistics back incrementally while the jobs run.
//
//	cwc-serve -listen :8080 -sim-workers 8
//
//	# cluster mode: start cwc-dist workers first, then point serve at them
//	cwc-dist worker -listen 127.0.0.1:7001 -sim-workers 4
//	cwc-dist worker -listen 127.0.0.1:7002 -sim-workers 4
//	cwc-serve -listen :8080 -workers 127.0.0.1:7001,127.0.0.1:7002
//
//	# submit a job
//	curl -s localhost:8080/jobs -d '{"model":"neurospora","omega":100,
//	  "trajectories":64,"end":48,"period":0.5,"window":16}'
//
//	# follow its windows as NDJSON while it runs
//	curl -sN localhost:8080/jobs/job-000001/stream
//
//	# check progress / ETA, then fetch the buffered result
//	curl -s localhost:8080/jobs/job-000001
//	curl -s 'localhost:8080/jobs/job-000001/result?wait=true'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cwcflow/internal/buildinfo"
	"cwcflow/internal/obs"
	"cwcflow/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cwc-serve:", err)
		os.Exit(1)
	}
}

// parseTenantWeights turns "alice=3,bob=1" into per-tenant configs.
func parseTenantWeights(s string) (map[string]serve.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	tenants := make(map[string]serve.TenantConfig)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights entry %q is not name=weight", pair)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights %q: weight must be a positive number", pair)
		}
		cfg := tenants[strings.TrimSpace(name)]
		cfg.Weight = w
		tenants[strings.TrimSpace(name)] = cfg
	}
	return tenants, nil
}

func run() error {
	var (
		listen         = flag.String("listen", ":8080", "HTTP listen address")
		simWorkers     = flag.Int("sim-workers", runtime.GOMAXPROCS(0), "local shared simulation pool width")
		workers        = flag.String("workers", "", "comma-separated remote sim worker addresses (cwc-dist worker)")
		workerInflight = flag.Int("worker-inflight", 8, "max slabs (one window of one trajectory each) in flight per remote worker")
		workerTimeout  = flag.Duration("worker-timeout", 30*time.Second, "declare a silent remote worker dead after this long")
		workerTTL      = flag.Duration("worker-ttl", 15*time.Second, "heartbeat window for dynamically registered workers")
		statEngines    = flag.Int("stat-engines", runtime.GOMAXPROCS(0), "shared statistical engine farm width")
		queueDepth     = flag.Int("queue-depth", 16, "pool internal queue depth")
		sampleBuffer   = flag.Int("sample-buffer", 64, "per-job ingress high-water mark (batches)")
		resultBuffer   = flag.Int("result-buffer", 1024, "per-job retained windows")
		subBuffer      = flag.Int("subscriber-buffer", 256, "per-stream-client window mailbox")
		maxJobs        = flag.Int("max-jobs", 64, "maximum concurrently active jobs")
		maxCompleted   = flag.Int("max-completed", 256, "finished jobs retained before eviction")
		maxTraj        = flag.Int("max-trajectories", 4096, "maximum trajectories per job")
		maxCuts        = flag.Int("max-cuts", 1_000_000, "maximum samples per trajectory (end/period)")
		dataDir        = flag.String("data-dir", "", "durable job store directory (empty = in-memory only, nothing survives a restart)")
		ckptSamples    = flag.Int("checkpoint-samples", 16, "journal a trajectory checkpoint every N samples (with -data-dir)")
		replicaID      = flag.String("replica-id", "", "this server's identity in a replicated tier sharing -data-dir; enables job leases and failover (empty = standalone)")
		leaseTTL       = flag.Duration("lease-ttl", 10*time.Second, "job-ownership lease duration (with -replica-id); a crashed replica's jobs fail over after at most this long")
		advertiseURL   = flag.String("advertise-url", "", "base URL other replicas redirect/proxy to for jobs this replica owns, e.g. http://host:8080 (with -replica-id)")
		failoverScan   = flag.Duration("failover-scan", 0, "lease-directory scan interval for adopting orphaned jobs (0 = lease-ttl/2; with -replica-id)")
		drainGrace     = flag.Duration("drain-grace", 150*time.Millisecond, "time a drain or handoff waits for in-flight quanta to checkpoint at a boundary before releasing leases")
		rebalanceScan  = flag.Duration("rebalance-scan", 0, "load-rebalancing scan interval (0 = 4×lease-ttl, negative disables; with -replica-id)")
		rebalanceGap   = flag.Int("rebalance-margin", 2, "minimum owned-job surplus a peer must have before this replica requests a handoff from it")
		scheduler      = flag.String("scheduler", "fifo", "quantum dispatch discipline: fifo (arrival order) or wfq (weighted fair share across tenants)")
		tenantConc     = flag.Int("default-tenant-concurrency", 0, "per-tenant running-job cap; submissions beyond it queue with a position (0 = unlimited)")
		tenantQueue    = flag.Int("default-tenant-queue", 16, "per-tenant admission queue depth; submissions beyond it get 429")
		tenantBudget   = flag.Int64("default-tenant-budget", 0, "per-tenant sample budget (trajectories×cuts over admitted jobs); submissions beyond it get 429 (0 = unlimited)")
		tenantWeights  = flag.String("tenant-weights", "", "per-tenant wfq weights, e.g. 'alice=3,bob=1' (others get weight 1)")
		cacheMax       = flag.Int("cache-max-entries", 1024, "content-addressed result cache index size (LRU; digests of completed specs)")
		noCache        = flag.Bool("no-cache", false, "disable the result cache and in-flight attach: every submission simulates")
		debugAddr      = flag.String("debug-addr", "", "separate listen address for GET /metrics and /debug/pprof (empty = disabled; /metrics also serves on the main listener)")
		showVersion    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("cwc-serve", buildinfo.Version)
		return nil
	}

	var workerAddrs []string
	if *workers != "" {
		for _, a := range strings.Split(*workers, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			// -workers used to be the pool width; fail loudly on a bare
			// number instead of dialing a nonsense "address" forever.
			if !strings.Contains(a, ":") {
				return fmt.Errorf("-workers takes remote sim worker addresses (host:port, comma-separated), got %q; the local pool width is -sim-workers", a)
			}
			workerAddrs = append(workerAddrs, a)
		}
	}
	tenants, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		return err
	}
	svc, err := serve.New(serve.Options{
		Workers:                  *simWorkers,
		StatEngines:              *statEngines,
		QueueDepth:               *queueDepth,
		SampleBuffer:             *sampleBuffer,
		ResultBuffer:             *resultBuffer,
		SubscriberBuffer:         *subBuffer,
		MaxJobs:                  *maxJobs,
		MaxCompleted:             *maxCompleted,
		MaxTrajectories:          *maxTraj,
		MaxCuts:                  *maxCuts,
		WorkerAddrs:              workerAddrs,
		WorkerInFlight:           *workerInflight,
		WorkerTimeout:            *workerTimeout,
		WorkerTTL:                *workerTTL,
		DataDir:                  *dataDir,
		CheckpointSamples:        *ckptSamples,
		ReplicaID:                *replicaID,
		LeaseTTL:                 *leaseTTL,
		AdvertiseURL:             *advertiseURL,
		FailoverScan:             *failoverScan,
		DrainGrace:               *drainGrace,
		RebalanceScan:            *rebalanceScan,
		RebalanceMargin:          *rebalanceGap,
		Scheduler:                *scheduler,
		DefaultTenantConcurrency: *tenantConc,
		DefaultTenantQueue:       *tenantQueue,
		DefaultTenantBudget:      *tenantBudget,
		Tenants:                  tenants,
		CacheMaxEntries:          *cacheMax,
		NoCache:                  *noCache,
		Version:                  buildinfo.Version,
		Logf:                     log.Printf,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: *listen, Handler: svc.Handler()}
	if *debugAddr != "" {
		// Metrics and pprof on their own listener: the debug surface can
		// stay off the load balancer (and off the public interface) while
		// the job API is exposed.
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: obs.NewDebugMux(svc.Metrics())}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "cwc-serve: debug listener:", err)
			}
		}()
		defer dbgSrv.Close()
		fmt.Fprintf(os.Stderr, "cwc-serve: metrics and pprof on %s\n", *debugAddr)
	}

	// SIGINT and SIGTERM both take the graceful path: fail the in-memory
	// jobs (without journaling shutdown as a job outcome), drain HTTP, and
	// fsync+close the journal so the next start resumes cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cwc-serve %s: listening on %s with %d pool workers, %d stat engines, %d remote sim workers\n",
		buildinfo.Version, *listen, svc.Workers(), svc.StatEngines(), len(workerAddrs))
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "cwc-serve: durable job store at %s (checkpoint every %d samples)\n", *dataDir, *ckptSamples)
	}
	if *replicaID != "" {
		fmt.Fprintf(os.Stderr, "cwc-serve: replica %q in tier at %s (lease ttl %s)\n", *replicaID, *dataDir, *leaseTTL)
	}

	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "cwc-serve: shutting down")
	// Close the service first. A replica drains: it checkpoints every
	// owned job, releases each lease with a handoff pointer and nudges the
	// peers to adopt immediately, so a rolling restart moves streams in
	// one adoption instead of a lease-TTL wait. A standalone durable
	// server fails the running jobs without journaling the shutdown as a
	// job outcome, and resumes them on the next start. Either way every
	// open stream ends with a terminal event, so Shutdown drains the HTTP
	// connections promptly instead of timing out behind blocked streams,
	// and Close performs the final journal fsync.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "cwc-serve: shutdown timeout, in-flight connections were closed forcibly")
		return nil
	}
	return err
}
