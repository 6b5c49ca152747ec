// Package serve wraps the CWC simulation-analysis pipeline in a
// long-running, concurrent job service — the first step of the roadmap's
// multi-user serving story.
//
// One service instance owns a single shared simulation pool (a
// long-lived core.SimFarm) and a single shared farm of statistical engines
// (core.StatFarm), sized independently. Each submitted job's slab
// scheduler injects its trajectories' slabs into the pool; on-demand
// scheduling interleaves every job's slices, so many jobs progress
// concurrently on a fixed set of workers with no per-job goroutine
// explosion: the service runs O(pool workers + stat engines + active jobs)
// goroutines in total. Per job, one windower goroutine drains batched
// samples into the job's core.Analysis — the analysis core.Run drives —
// which aligns them, cuts sliding windows, fans the windows out across the
// stat farm's engines and republishes the results in window order,
// incrementally — results stream out while the simulation is still
// running, the paper's on-line property, carried over to the service. The pool collector never
// blocks on a tenant: a job whose analysis lags is deferred at the
// scheduling step and, past a hard bound, spills (and fails) rather than
// pausing any other job's delivery.
//
// The HTTP surface (see Server.Handler) is:
//
//	POST   /jobs              submit a JobSpec, returns the job Status
//	GET    /jobs              list all jobs
//	GET    /jobs/{id}         one job's Status (progress, latency, ETA)
//	GET    /jobs/{id}/stream  windows as NDJSON (or SSE), live + replay
//	GET    /jobs/{id}/result  buffered windows; ?wait=true blocks to end
//	POST   /jobs/{id}/cancel  cancel (DELETE /jobs/{id} is equivalent)
//	GET    /workers           remote sim workers: liveness, load, failures
//	POST   /workers/register  join the cluster / heartbeat
//	GET    /healthz           pool and registry health
//
// Every job's trajectories run under its own slab scheduler (see
// slabSched): window-long slabs granted breadth-first from one FIFO of
// trajectory heads to the local pool and, with remote sim workers
// configured (Options.WorkerAddrs, or workers registering dynamically),
// to the cluster; results merge through the same ingress/analysis path,
// deterministically even across worker failures, requeues and restarts.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cwcflow/internal/chaos"
	"cwcflow/internal/core"
	"cwcflow/internal/lease"
	"cwcflow/internal/obs"
	"cwcflow/internal/serve/sched"
	"cwcflow/internal/store"
)

// ErrBusy is returned by Submit when the active-job limit is reached — a
// retryable condition (HTTP 429), unlike an invalid spec.
var ErrBusy = errors.New("serve: active job limit reached")

// ErrClosed is returned by Submit once the server is shutting down
// (HTTP 503).
var ErrClosed = errors.New("serve: server is closed")

// ErrDraining is returned by Submit while the replica is draining:
// admission has stopped ahead of a shutdown or an operator-requested
// handoff, but reads keep working. The HTTP layer redirects such
// submissions to a live peer (307) when one exists.
var ErrDraining = errors.New("serve: replica is draining")

// errSaturated marks the server-wide MaxJobs rejection so the HTTP
// layer can distinguish it from tenant-queue overflow: a saturated
// replica forwards the submission to a less-loaded peer, while a
// tenant-quota rejection must hold wherever the tenant lands. It wraps
// ErrBusy, so callers matching ErrBusy see no change.
var errSaturated = fmt.Errorf("%w (server saturated)", ErrBusy)

// Options configures a Server. The zero value is usable: every field
// defaults sensibly in New.
type Options struct {
	// Workers is the shared simulation pool width (default GOMAXPROCS).
	Workers int
	// StatEngines is the width of the shared farm of statistical engines
	// that analyses every job's windows (default GOMAXPROCS). It is sized
	// independently of the simulation pool: stats-heavy services (k-means,
	// period detection over large ensembles) want more engines, sim-heavy
	// ones fewer. Each job may occupy at most ceil(StatEngines/2) engines
	// at once, so one heavy tenant can never starve the farm.
	StatEngines int
	// QueueDepth is the pool's internal channel capacity (default 16).
	QueueDepth int
	// SampleBuffer is the high-water mark of each job's ingress queue of
	// in-flight sample batches between the pool collector and the job's
	// windower (default 64 batches). A job over the mark has its quanta
	// deferred by the pool (backpressure at the scheduling step) instead
	// of blocking the collector; the queue's hard bound sits above the
	// mark by the pool's maximum in-flight quanta, so nothing spills while
	// deferral works.
	SampleBuffer int
	// ResultBuffer bounds each job's ring of retained WindowStats
	// (default 1024); older windows are evicted once exceeded.
	ResultBuffer int
	// SubscriberBuffer bounds each streaming client's mailbox (default
	// 256 windows); a slow client loses windows instead of stalling the
	// job.
	SubscriberBuffer int
	// MaxJobs caps concurrently active (non-terminal) jobs (default 64).
	MaxJobs int
	// MaxCompleted caps retained terminal jobs (default 256): beyond it,
	// the oldest finished/cancelled/failed jobs are evicted from the
	// registry (results included) so a long-running server's memory stays
	// bounded.
	MaxCompleted int
	// MaxTrajectories caps the per-job ensemble size (default 4096).
	MaxTrajectories int
	// MaxCuts caps a job's samples per trajectory, floor(End/Period)+1
	// (default 1e6): without it one spec with an extreme End/Period ratio
	// creates a practically unterminating job with unbounded sample
	// volume.
	MaxCuts int
	// Resolver maps a model reference to a simulator factory (default
	// core.FactoryFor). Tests inject synthetic models here.
	Resolver func(core.ModelRef) (core.SimulatorFactory, error)

	// WorkerAddrs is the static list of remote sim workers (cwc-dist
	// worker processes) the service may shard trajectory quanta onto.
	// More workers can join at runtime via POST /workers/register.
	WorkerAddrs []string
	// WorkerInFlight caps the slabs (one window of one trajectory each) in
	// flight on one remote worker across all jobs (default 8); a register
	// call may override it per worker.
	WorkerInFlight int
	// WorkerTTL is the heartbeat window of dynamically registered workers
	// (default 15s): a worker that has not re-registered within it stops
	// receiving new trajectories.
	WorkerTTL time.Duration
	// WorkerCooldown is how long a failed worker sits out before the
	// scheduler retries it (default 10s).
	WorkerCooldown time.Duration
	// WorkerTimeout is the per-connection result watchdog (default 30s):
	// a worker holding slabs that produces no stream activity for this
	// long is declared dead and its slabs requeued.
	WorkerTimeout time.Duration
	// DialTimeout bounds the connection attempt to a worker at job
	// submission (default 3s).
	DialTimeout time.Duration

	// DataDir, when non-empty, enables the durable job store: a
	// write-ahead journal of submissions, published windows, trajectory
	// checkpoints and terminal states under this directory. A restarted
	// server recovers completed jobs' results and resumes in-flight jobs
	// from their last checkpoint with a bit-identical window stream (see
	// package store). Empty disables durability (the pre-PR5 behaviour).
	DataDir string
	// CheckpointSamples is how often a trajectory's engine state is
	// checkpointed to the journal: every time its next sample index
	// advances by this many samples (default 16, usually one window of
	// cuts). Smaller values mean less re-simulation after a crash, more
	// journal traffic. Only meaningful with DataDir. The cadence applies
	// to local-pool trajectories and to remote ones alike: every remote
	// slab ends in an engine snapshot, journaled at this cadence, so the
	// durable frontier advances with remote progress too.
	CheckpointSamples int
	// ReplicaID, when non-empty, runs this server as one replica of a
	// replicated serve tier over the shared DataDir: its journal moves to
	// DataDir/replicas/<id>/ and every job is driven under a job-ownership
	// lease from DataDir/leases/ (owner id, fencing epoch, TTL). Exactly
	// one replica owns a job at a time; the others serve reads by peeking
	// the owner's journal and redirect/proxy writes to it, and a replica
	// that finds an expired or released lease steals it at a higher epoch
	// and resumes the job from the owner's journal. Empty (the default)
	// keeps the single-server layout and behaviour. Requires DataDir; the
	// id must be 1..128 chars of [A-Za-z0-9._-].
	ReplicaID string
	// AdvertiseURL is this replica's client-reachable base URL (e.g.
	// "http://10.0.0.7:8080"), recorded in every lease it takes so peer
	// replicas can redirect streams and proxy cancels to the owner. Empty
	// disables redirects (peers answer 503 for owner-only endpoints).
	AdvertiseURL string
	// LeaseTTL is how long a job lease lives between renewals (default
	// 10s). The owner renews at TTL/3; a lease not renewed within TTL is
	// stealable by any replica. Shorter TTLs mean faster failover and
	// more lease-file traffic.
	LeaseTTL time.Duration
	// FailoverScan is how often a replica scans the lease directory for
	// expired or released leases to take over (default LeaseTTL/2). Each
	// interval is jittered over [d/2, 3d/2] so N replicas started
	// together never scan in lockstep.
	FailoverScan time.Duration
	// DrainGrace is how long a drain or handoff waits after flagging a
	// job for forced checkpointing before stopping it, giving in-flight
	// quanta one boundary to checkpoint at (default 150ms; negative
	// skips the wait). Only meaningful with ReplicaID.
	DrainGrace time.Duration
	// RebalanceScan is the cadence (jittered like FailoverScan) of the
	// lease-rebalancing anti-entropy loop, where an underloaded replica
	// requests handoffs from the most loaded live peer (default
	// 4×LeaseTTL; negative disables rebalancing).
	RebalanceScan time.Duration
	// RebalanceMargin is the rebalancer's hysteresis: a replica requests
	// a handoff only from a peer owning at least this many more jobs
	// than itself, and moves one job per tick (default and minimum 2 —
	// moving one job shrinks the pairwise imbalance by two, so a move is
	// never immediately reversed and the tier converges without
	// thrashing).
	RebalanceMargin int
	// CacheMaxEntries bounds the content-addressed result cache: spec
	// digest → terminal job, LRU-evicted past this many entries (default
	// 1024). Runs are deterministic, so a repeat submission of a cached
	// spec answers with the completed job (201, cache_hit) instead of
	// simulating again, and a submission matching a running job's digest
	// attaches to its stream.
	CacheMaxEntries int
	// NoCache disables the result cache and in-flight attach entirely:
	// every submission simulates, the pre-cache behaviour.
	NoCache bool
	// Chaos, when non-nil, enables deterministic fault injection at the
	// wired points (dff receive drop/delay/duplicate, WAL fsync stall,
	// early lease expiry). Tests only; nil disables every hook.
	Chaos *chaos.Injector
	// Version is the build version surfaced in healthz (set by the cwc-serve
	// binary from its -ldflags-injected build info).
	Version string
	// Logf, when non-nil, receives one line per job terminal transition
	// carrying the job's trace summary (the cwc-serve binary points it at
	// log.Printf). Nil disables terminal logging.
	Logf func(format string, args ...any)

	// Scheduler selects the pool's quantum-dispatch discipline: "fifo"
	// (default — global arrival order, the historical behaviour) or "wfq"
	// (weighted fair queueing across tenant flows, see package sched).
	// The discipline only reorders dispatch; window digests are
	// bit-identical under either (samples are keyed by trajectory and
	// index, not arrival time).
	Scheduler string
	// DefaultTenantConcurrency caps concurrently running jobs per tenant
	// for tenants without an explicit TenantConfig (0 = unlimited, the
	// pre-tenancy behaviour). A tenant at its cap has further submissions
	// queued with a position instead of rejected.
	DefaultTenantConcurrency int
	// DefaultTenantQueue caps each tenant's admission queue (default 16);
	// beyond it submissions are rejected with ErrBusy (429).
	DefaultTenantQueue int
	// DefaultTenantBudget caps the samples (trajectories × cuts, summed
	// over running and queued jobs) a tenant may hold admitted at once
	// (0 = unlimited). Over-budget submissions get ErrQuotaExceeded (429).
	DefaultTenantBudget int64
	// DefaultTenantWeight is the wfq share weight of tenants without an
	// explicit TenantConfig (default 1).
	DefaultTenantWeight float64
	// Tenants holds per-tenant quota/weight overrides, keyed by tenant id.
	// Tenants not listed here use the Default* fields above.
	Tenants map[string]TenantConfig

	// statHook, when non-nil, runs at the start of every window's
	// analysis with the owning job's id. Test-only seam (unexported): it
	// emulates an expensive statistical configuration (or a stalled
	// tenant) with a cost that parallelises across engines independently
	// of the host's core count.
	statHook func(jobID string)
	// slabHook, when non-nil, observes every grant, admitted delivery and
	// congestion-blocked reader of every job's slab scheduler (see
	// slabEvent), under the scheduler's mutex. Test seam.
	slabHook func(slabEvent)

	// metrics is the server's metric set, created by New and threaded to
	// jobs through this options copy (the same unexported-seam pattern as
	// statHook). Always non-nil after New; nil in a zero Options, where
	// every obs call degrades to a no-op.
	metrics *serveMetrics
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.StatEngines < 1 {
		o.StatEngines = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 16
	}
	if o.SampleBuffer < 1 {
		o.SampleBuffer = 64
	}
	if o.ResultBuffer < 1 {
		o.ResultBuffer = 1024
	}
	if o.SubscriberBuffer < 1 {
		o.SubscriberBuffer = 256
	}
	if o.MaxJobs < 1 {
		o.MaxJobs = 64
	}
	if o.MaxTrajectories < 1 {
		o.MaxTrajectories = 4096
	}
	if o.MaxCompleted < 1 {
		o.MaxCompleted = 256
	}
	if o.MaxCuts < 1 {
		o.MaxCuts = 1_000_000
	}
	if o.Resolver == nil {
		o.Resolver = core.FactoryFor
	}
	if o.WorkerInFlight < 1 {
		o.WorkerInFlight = 8
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 15 * time.Second
	}
	if o.WorkerCooldown <= 0 {
		o.WorkerCooldown = 10 * time.Second
	}
	if o.WorkerTimeout <= 0 {
		o.WorkerTimeout = 30 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.CheckpointSamples < 1 {
		o.CheckpointSamples = 16
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.FailoverScan <= 0 {
		o.FailoverScan = o.LeaseTTL / 2
	}
	if o.DrainGrace == 0 {
		o.DrainGrace = 150 * time.Millisecond
	}
	if o.RebalanceScan == 0 {
		o.RebalanceScan = 4 * o.LeaseTTL
	}
	if o.RebalanceMargin < 2 {
		o.RebalanceMargin = 2
	}
	if o.CacheMaxEntries < 1 {
		o.CacheMaxEntries = 1024
	}
	if o.Scheduler == "" {
		o.Scheduler = "fifo"
	}
	if o.DefaultTenantQueue < 1 {
		o.DefaultTenantQueue = 16
	}
	if o.DefaultTenantWeight <= 0 {
		o.DefaultTenantWeight = 1
	}
	return o
}

// Server is the job service: a registry of jobs multiplexed onto one
// shared simulation pool and one shared stat farm, plus the HTTP API over
// them.
type Server struct {
	opts     Options
	pool     *core.SimFarm
	stats    *core.StatFarm
	registry *registry
	store    *store.Store         // nil when durability is disabled
	leases   *lease.Manager       // nil unless ReplicaID is set (replicated tier)
	peers    *lease.PeerDirectory // nil unless ReplicaID is set
	mux      *http.ServeMux
	wfq      *sched.WFQ[core.SimSlab] // non-nil iff Options.Scheduler == "wfq"
	m        *serveMetrics            // always non-nil (== opts.metrics)

	// draining flips once (Drain) and never back: admission is refused
	// with ErrDraining, the failover and rebalance loops stand down, and
	// every owned job is handed off to a peer.
	draining atomic.Bool
	// drainMu serialises Drain passes (SIGTERM racing POST /drain) so
	// each held lease is handed off exactly once.
	drainMu sync.Mutex
	// takeoverMu serialises takeovers: the failover scan and a draining
	// peer's adopt nudge may both have read the same stealable lease, and
	// the second must find the job already ours instead of resuming it
	// again beside the first.
	takeoverMu sync.Mutex

	// replicaStop/replicaWG bound the lease renew, failover-scan and
	// rebalance loops; Close signals and waits before closing the store
	// they use.
	replicaStop chan struct{}
	replicaWG   sync.WaitGroup

	// probeMu/probes cache owner-liveness HTTP probes (ownerAlive) so a
	// burst of reads for a dead owner's job cannot stampede its socket.
	probeMu sync.Mutex
	probes  map[string]ownerProbe

	// cache is the content-addressed result index (spec digest → terminal
	// job id); nil iff Options.NoCache. Hit/miss/attach/redirect counts
	// live in the metric registry (s.m.cache*), the single source for
	// GET /cache, /healthz and /metrics.
	cache *store.Cache

	mu          sync.Mutex
	closed      bool
	jobs        map[string]*Job
	order       []string
	seq         int
	tenants     map[string]*tenantState
	tenantOrder []string // tenant creation order (= wfq tie-break order)
	// inflightDigest maps a spec digest to the non-terminal local job
	// running it — the attach targets. nil iff Options.NoCache.
	inflightDigest map[string]*Job
}

// New starts a Server (its simulation pool, stat farm and worker
// registry) with the given options. With Options.DataDir set it opens
// the durable job store first and recovers from it: completed jobs
// reappear with their buffered results, and in-flight jobs resume from
// their last checkpoint under their slab schedulers (see package store
// and slabSched). The only
// error paths are the store's (journal unreadable, directory not
// writable); without DataDir, New cannot fail.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	m := newServeMetrics(obs.NewRegistry())
	opts.metrics = m
	s := &Server{
		opts:     opts,
		m:        m,
		stats:    core.NewStatFarm(opts.StatEngines, opts.QueueDepth),
		registry: newRegistry(opts.WorkerAddrs, opts.WorkerInFlight, opts.WorkerTTL, opts.WorkerCooldown),
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]*tenantState),
	}
	if !opts.NoCache {
		s.cache = store.NewCache(opts.CacheMaxEntries)
		s.inflightDigest = make(map[string]*Job)
	}
	var queue core.TaskQueue
	switch opts.Scheduler {
	case "fifo":
		queue = sched.NewFIFO[core.SimSlab]()
	case "wfq":
		var fallback *sched.Flow[core.SimSlab]
		s.wfq = sched.NewWFQ(func(sl core.SimSlab) *sched.Flow[core.SimSlab] {
			if f := sl.Owner.(*slabSched).job.flow; f != nil {
				return f
			}
			return fallback // flow-less job (defensive; should not happen)
		})
		fallback = s.wfq.NewFlow("(unclassified)", 1)
		queue = s.wfq
	default:
		s.stats.Close()
		return nil, fmt.Errorf("serve: unknown scheduler %q (want fifo or wfq)", opts.Scheduler)
	}
	s.pool = core.NewSimFarm(opts.Workers, opts.QueueDepth, queue, core.SliceBudget{Steps: sliceSteps, Time: sliceTime})
	s.routes()
	if opts.ReplicaID != "" && opts.DataDir == "" {
		s.pool.Close()
		s.stats.Close()
		return nil, fmt.Errorf("serve: ReplicaID requires DataDir (a replica is defined by the shared store directory)")
	}
	if opts.DataDir != "" {
		storeDir := opts.DataDir
		if opts.ReplicaID != "" {
			// Replicated tier: each replica appends to its own journal
			// under the shared directory (a WAL has exactly one writer);
			// ownership is arbitrated by the lease files, and takeovers
			// copy a job's state across journals via store.Adopt.
			storeDir = filepath.Join(opts.DataDir, "replicas", opts.ReplicaID)
			if err := migrateLegacyJournal(opts.DataDir, storeDir); err != nil {
				s.pool.Close()
				s.stats.Close()
				return nil, err
			}
		}
		st, err := store.Open(storeDir, store.Options{RetainWindows: opts.ResultBuffer, Chaos: opts.Chaos, Metrics: m.walMetrics})
		if err != nil {
			s.pool.Close()
			s.stats.Close()
			return nil, err
		}
		s.store = st
		if opts.ReplicaID != "" {
			lm, err := lease.NewManager(lease.Options{
				Dir:     filepath.Join(opts.DataDir, "leases"),
				Owner:   opts.ReplicaID,
				URL:     opts.AdvertiseURL,
				TTL:     opts.LeaseTTL,
				Chaos:   opts.Chaos,
				Metrics: m.leaseMetrics,
			})
			if err != nil {
				s.store.Close()
				s.pool.Close()
				s.stats.Close()
				return nil, fmt.Errorf("serve: %w", err)
			}
			s.leases = lm
			// The fence: every journal append for a job must hold that
			// job's lease, unexpired by the local clock. A zombie owner
			// (stolen lease, stalled renew loop) is refused at the store
			// before its stale progress can land.
			s.store.SetFence(lm.Check)
			pd, err := lease.NewPeerDirectory(filepath.Join(opts.DataDir, "peers"), opts.ReplicaID)
			if err != nil {
				s.store.Close()
				s.pool.Close()
				s.stats.Close()
				return nil, fmt.Errorf("serve: %w", err)
			}
			s.peers = pd
		}
		s.recover()
		if s.leases != nil {
			// First heartbeat before the loops start, so peers can route
			// submissions and nudge adoptions here from the very first
			// request; renewLoop refreshes it at TTL/3.
			s.announcePeer()
			s.replicaStop = make(chan struct{})
			s.replicaWG.Add(2)
			go s.renewLoop()
			go s.failoverLoop()
			if opts.RebalanceScan > 0 {
				s.replicaWG.Add(1)
				go s.rebalanceLoop()
			}
		}
	}
	m.registerServerFuncs(s)
	return s, nil
}

// Metrics returns the server's metric registry (the GET /metrics
// exposition; binaries also mount it on their -debug-addr).
func (s *Server) Metrics() *obs.Registry { return s.m.reg }

// migrateLegacyJournal moves a pre-replication journal at the shared
// directory's root into this replica's own journal directory, so an
// existing single-server data dir can be upgraded in place by starting
// the first replica on it. Only runs when the replica has no journal of
// its own yet.
func migrateLegacyJournal(dataDir, storeDir string) error {
	legacy := filepath.Join(dataDir, "journal.wal")
	if _, err := os.Stat(legacy); err != nil {
		return nil
	}
	mine := filepath.Join(storeDir, "journal.wal")
	if _, err := os.Stat(mine); err == nil {
		return nil
	}
	if err := os.MkdirAll(storeDir, 0o777); err != nil {
		return fmt.Errorf("serve: migrating legacy journal: %w", err)
	}
	if err := os.Rename(legacy, mine); err != nil {
		return fmt.Errorf("serve: migrating legacy journal: %w", err)
	}
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the shared pool width.
func (s *Server) Workers() int { return s.pool.Workers() }

// StatEngines returns the shared stat farm width.
func (s *Server) StatEngines() int { return s.stats.Engines() }

// Submit validates a spec, builds the job's simulators and schedules its
// trajectory tasks on the shared pool, accounted to the default tenant.
// It returns once the job is registered and streaming; the simulation
// itself proceeds in the background.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitAs(spec, DefaultTenant)
}

// SubmitAs is Submit on behalf of a tenant (the X-CWC-Tenant header).
// Admission is tenant-aware: a submission the tenant's sample budget
// cannot cover fails with ErrQuotaExceeded, a tenant at its concurrency
// cap has the job admitted into its priority-ordered queue (StateQueued,
// with a position) instead of run, and a full queue — or a saturated
// server — fails with ErrBusy.
func (s *Server) SubmitAs(spec JobSpec, tenant string) (*Job, error) {
	res, err := s.SubmitOutcome(spec, tenant)
	if err != nil {
		return nil, err
	}
	return res.Job, nil
}

// SubmitOutcome is SubmitAs reporting how the submission was answered:
// from the content-addressed result cache (CacheHit — runs are
// deterministic, so an identical canonical spec reuses the completed
// job), by attaching to an in-flight job with the same digest (Attached —
// one simulation, N watchers), or by creating a job (neither flag). Cache
// hits and attaches charge the tenant nothing: no slot, no sample budget.
// In a replicated tier, a digest in flight on a live peer returns
// *AttachRedirectError so the HTTP layer can bounce the client there.
func (s *Server) SubmitOutcome(spec JobSpec, tenant string) (SubmitResult, error) {
	return s.SubmitTraced(spec, tenant, "")
}

// SubmitTraced is SubmitOutcome carrying an inbound trace id (from a
// client's traceparent header; empty means a fresh id is minted): the
// created job's span log adopts it, so a client-side trace and the
// job's lifecycle spans share one id end to end. Every submission —
// accepted, cached, or rejected — is counted by outcome here.
func (s *Server) SubmitTraced(spec JobSpec, tenant, traceID string) (SubmitResult, error) {
	res, err := s.submitOutcome(spec, tenant, traceID)
	s.m.submits.With(submitOutcomeLabel(res, err)).Inc()
	return res, err
}

func (s *Server) submitOutcome(spec JobSpec, tenant, traceID string) (SubmitResult, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !validTenant(tenant) {
		return SubmitResult{}, fmt.Errorf("serve: invalid tenant id %q (want 1-64 chars of [A-Za-z0-9._-])", tenant)
	}
	// The cache fast path answers before any validation or model
	// resolution: whatever is cached under this key was admitted once
	// already (by this tenant — keys are tenant-scoped). The
	// authoritative re-check happens inside the admission critical
	// section below; this one just spares hits the resolver work and is
	// the single place a miss is counted.
	digest := SpecDigest(spec)
	key := cacheKey(tenant, digest)
	if s.cache != nil {
		s.mu.Lock()
		res, hit := s.cacheLookupLocked(key, true)
		s.mu.Unlock()
		if hit {
			return res, nil
		}
		if url, owner, ok := s.attachTarget(key); ok {
			s.m.cacheRedirects.Inc()
			return SubmitResult{}, &AttachRedirectError{URL: url, Owner: owner}
		}
	}
	if spec.Trajectories > s.opts.MaxTrajectories {
		return SubmitResult{}, fmt.Errorf("serve: %d trajectories exceeds the per-job limit of %d", spec.Trajectories, s.opts.MaxTrajectories)
	}
	cfg, species, cuts, err := s.runConfig(spec)
	if err != nil {
		return SubmitResult{}, err
	}
	if cuts > s.opts.MaxCuts {
		return SubmitResult{}, fmt.Errorf("serve: end/period yields %d samples per trajectory, limit is %d", cuts, s.opts.MaxCuts)
	}
	sampleCost := int64(cfg.Trajectories) * int64(cuts)

	// Resolve the tenant's dispatch counter before taking s.mu: a first
	// sighting registers a series under Registry.mu, and a concurrent
	// /metrics scrape orders the locks the other way (Render samples
	// gauges that read server state). Registry.Render no longer holds its
	// lock while sampling, but registering metrics under s.mu would still
	// couple the two locks for no benefit.
	obsTenantQuanta := s.m.tenantQuanta.With(tenant)

	s.mu.Lock()
	// Decisive cache re-check, in the same critical section that will
	// register the job and its in-flight digest: of two racing submissions
	// of one spec, the loser lands here after the winner registered and
	// attaches instead of simulating twice.
	if res, hit := s.cacheLookupLocked(key, false); hit {
		s.mu.Unlock()
		return res, nil
	}
	t := s.tenantLocked(tenant)
	queued, err := s.admitLocked(t, sampleCost)
	if err != nil {
		s.mu.Unlock()
		return SubmitResult{}, err
	}
	s.seq++
	id := s.jobID()
	job := s.newJob(id, spec, cfg, species, cuts)
	job.digest = digest
	job.tenant = tenant
	job.flow = t.flow
	job.tenantQuanta = &t.quanta
	job.obsTenantQuanta = obsTenantQuanta
	if traceID != "" {
		// Adopt the client's trace id (safe here: no span has been
		// recorded yet, and the job is not visible to anyone).
		job.trace = obs.NewTrace(traceID, s.m.spansDropped)
	}
	if queued {
		job.state = StateQueued // pre-registration: no other goroutine sees the job yet
		job.trace.Event("admission", job.origin, "queued tenant="+tenant)
		s.enqueueLocked(t, job)
	} else {
		job.admission = admActive
		t.active++
		t.budgetUsed += sampleCost
		job.trace.Event("admission", job.origin, "tenant="+tenant)
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	if s.inflightDigest != nil && key != "" {
		if _, exists := s.inflightDigest[key]; !exists {
			s.inflightDigest[key] = job
		}
	}
	s.pruneLocked()
	s.mu.Unlock()

	// In a replicated tier, take the job's ownership lease before the
	// first journal append (the store fence refuses appends for jobs
	// whose lease this replica does not hold). The cache key rides the
	// lease so peers can redirect a matching submission here while it
	// runs.
	if s.leases != nil {
		if _, lerr := s.leases.AcquireDigest(id, key); lerr != nil {
			job.noPersist.Store(true)
			job.fail(lerr)
			s.unregister(id)
			return SubmitResult{}, fmt.Errorf("serve: acquiring job lease: %w", lerr)
		}
		// Load changed: refresh the heartbeat now rather than at the next
		// renew tick, so peer rebalancers and submit forwarders see this
		// replica's owned-job count while the job is still young.
		s.announcePeer()
	}
	// Journal the submission before any goroutine can produce durable
	// events for it (replay ignores windows of never-submitted jobs). A
	// job the store cannot record is rejected: accepting it would promise
	// a durability the journal does not have.
	if s.store != nil {
		specJSON, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = s.store.AppendSubmit(id, job.submitted, specJSON, tenant)
		}
		if jerr != nil {
			job.noPersist.Store(true)
			job.fail(jerr) // releases the tenant slot/budget via jobFinished
			s.unregister(id)
			return SubmitResult{}, fmt.Errorf("serve: journaling submission: %w", jerr)
		}
	}

	if queued {
		// The job waits in its tenant's admission queue; dispatchLocked
		// launches it (via startFn) when a slot frees.
		return SubmitResult{Job: job}, nil
	}
	if err := s.startJob(job); err != nil {
		// The job's first trajectory could not be built: unregister the
		// job so the error response is consistent with the registry (no
		// ghost failed job the client was told does not exist).
		s.unregister(id)
		return SubmitResult{}, err
	}
	return SubmitResult{Job: job}, nil
}

// runConfig derives a job's run from its spec: the resolved model in a
// normalized core.Config, the analysed species, and the samples per
// trajectory, floor(End/Period)+1 — computed in float64 and saturated, so
// an extreme ratio cannot overflow the int before the caller bounds it.
// ResolveSpecies probes factory(0), so model construction errors surface
// here, synchronously — as a 400 on submission.
func (s *Server) runConfig(spec JobSpec) (cfg core.Config, species []int, cuts int, err error) {
	factory, err := s.opts.Resolver(core.ModelRef{Name: spec.Model, Omega: spec.Omega})
	if err != nil {
		return cfg, nil, 0, err
	}
	cfg, err = core.Config{
		Factory:       factory,
		Trajectories:  spec.Trajectories,
		End:           spec.End,
		Quantum:       spec.Quantum,
		Period:        spec.Period,
		SimWorkers:    s.pool.Workers(),
		StatEngines:   1,
		WindowSize:    spec.WindowSize,
		WindowStep:    spec.WindowStep,
		Species:       spec.Species,
		KMeansK:       spec.KMeansK,
		PeriodHalfWin: spec.PeriodHalfWin,
		BaseSeed:      spec.Seed,
	}.Normalized()
	if err != nil {
		return cfg, nil, 0, err
	}
	cuts = math.MaxInt
	if f := math.Floor(cfg.End/cfg.Period) + 1; f < math.MaxInt {
		cuts = int(f)
	}
	species, err = core.ResolveSpecies(cfg)
	return cfg, species, cuts, err
}

// startJob launches an admitted job, submitted or recovered: its slab
// scheduler connects to the live workers, then the windower starts and
// makes the first grant. An error — the first trajectory could not be
// built — has already failed the job.
func (s *Server) startJob(job *Job) error {
	job.trace.Event("dispatch", job.origin, "")
	if err := job.sched.start(); err != nil {
		err = fmt.Errorf("serve: building trajectory 0: %w", err)
		job.fail(err)
		return err
	}
	go job.runWindower(s.stats)
	return nil
}

// unregister removes a job that failed during submission, after it was
// provisionally registered.
func (s *Server) unregister(id string) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok && j.digest != "" {
		if key := cacheKey(j.tenant, j.digest); s.inflightDigest[key] == j {
			delete(s.inflightDigest, key)
		}
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if s.store != nil {
		s.store.Forget(id)
	}
}

// pruneLocked evicts the oldest terminal jobs beyond MaxCompleted. Active
// jobs are never evicted. Callers hold s.mu.
func (s *Server) pruneLocked() {
	terminal := 0
	for _, j := range s.jobs {
		if j.State().Terminal() {
			terminal++
		}
	}
	if terminal <= s.opts.MaxCompleted {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if terminal > s.opts.MaxCompleted && s.jobs[id].State().Terminal() {
			delete(s.jobs, id)
			if s.cache != nil {
				// The results leave the registry with the job; a cache hit
				// on its digest would dangle.
				s.cache.RemoveJob(id)
			}
			if s.store != nil {
				// Evicted results no longer need to outlive anything:
				// drop the job from the journal at its next compaction.
				s.store.Forget(id)
			}
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get returns a job by id.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobCounts tallies the registry's jobs by lifecycle phase — the shared
// source of /healthz's jobs_* keys and the cwc_jobs gauges.
func (s *Server) jobCounts() (total, active, queued int) {
	jobs := s.List()
	total = len(jobs)
	for _, j := range jobs {
		switch st := j.State(); {
		case st == StateQueued:
			queued++
		case !st.Terminal():
			active++
		}
	}
	return total, active, queued
}

// remoteWorkerCounts tallies the known and live remote sim workers —
// the shared source of /healthz's remote_workers* keys and the
// cwc_remote_workers gauges.
func (s *Server) remoteWorkerCounts() (total, live int) {
	workers := s.registry.snapshot()
	for _, w := range workers {
		if w.Alive {
			live++
		}
	}
	return len(workers), live
}

// List returns all jobs in submission order.
func (s *Server) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Close fails every non-terminal job and shuts the pool and the stat farm
// down. The HTTP handler stays callable (reads keep working; submissions
// fail). Marking the server closed before snapshotting the registry makes
// the shutdown race-free against concurrent Submits: a submission that
// registers after this point is rejected by admitLocked, so no job can
// slip past both the fail loop and the pool's closed check and be left
// running forever.
// In-flight jobs are failed in memory but NOT journaled as failed: with
// a durable store, a shutdown is not a job outcome — the next start
// recovers them as running and resumes from their last checkpoint. The
// store is flushed and closed last, after every producer of journal
// events has stopped.
func (s *Server) Close() {
	// Voluntary handoff first, while the replica loops, the HTTP surface
	// and the peers are all still up: every owned job is checkpointed at
	// its frontier and its lease released with a handoff pointer, and
	// the least-loaded live peers are nudged to adopt right now — a
	// rolling restart stalls a stream by one adoption, not one TTL.
	// Standalone servers have no leases; Drain only stops admission.
	s.Drain()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Stop the replica loops next: the failover scan adopts into the
	// store and must not race its Close, and a renew fired after the
	// jobs are failed would re-extend leases this shutdown releases.
	if s.replicaStop != nil {
		close(s.replicaStop)
		s.replicaWG.Wait()
	}
	for _, j := range s.List() {
		j.noPersist.Store(true)
		j.setTerminal(StateFailed, "server shutting down")
	}
	// Backstop: release any lease Drain could not hand off (a job that
	// raced admission during the drain, a failed handoff write), so a
	// peer can still take the journaled jobs over immediately instead of
	// waiting out the TTL.
	if s.leases != nil {
		for _, id := range s.leases.HeldJobs() {
			s.leases.Release(id)
		}
	}
	s.pool.Close()
	s.stats.Close()
	if s.store != nil {
		s.store.Close()
	}
	if s.peers != nil {
		s.peers.Remove()
	}
}

// jobID formats the next submission id. Replicas namespace their ids so
// two replicas admitting jobs concurrently never collide. Callers hold
// s.mu (the id consumes s.seq).
func (s *Server) jobID() string {
	if s.opts.ReplicaID != "" {
		return fmt.Sprintf("job-%s-%06d", s.opts.ReplicaID, s.seq)
	}
	return fmt.Sprintf("job-%06d", s.seq)
}
