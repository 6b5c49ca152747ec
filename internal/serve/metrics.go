package serve

import (
	"errors"

	"cwcflow/internal/lease"
	"cwcflow/internal/obs"
	"cwcflow/internal/store"
)

// Label-cardinality caps for the dynamic-label counter families. Tenant
// ids and worker addresses are client-controlled; past these many
// distinct values, further ones fold into the "other" child (see
// obs.CounterVec), so a hostile tenant or an elastic worker fleet
// cannot grow /metrics without bound.
const (
	maxTenantSeries  = 64
	maxWorkerSeries  = 64
	maxOutcomeSeries = 16
)

// serveMetrics is the server's metric set: one histogram per
// quantum-lifecycle stage boundary (admission queue → scheduler queue →
// local/remote execution → ingress ring → stat analysis → reorder
// buffer, with the WAL and lease layers instrumented via store.Metrics
// and lease.Metrics built from the same registry), plus the pipeline
// and control-plane counters. Every field is an obs metric with
// nil-safe methods, so instrumented call sites are unconditional.
type serveMetrics struct {
	reg *obs.Registry

	// Stage-boundary latency histograms, in pipeline order.
	admissionWait *obs.Histogram // tenant admission queue: enqueue → dispatch
	schedWait     *obs.Histogram // pool scheduler queue: push → pop-to-dispatch
	localQuantum  *obs.Histogram // local pool quantum-batch execution (per-slice mean, once per quantum)
	remoteQuantum *obs.Histogram // remote quantum-batch execution (worker-reported per-slab mean)
	remoteRTT     *obs.Histogram // remote round trip: slab grant → result delivery
	ingressWait   *obs.Histogram // ingress-ring residency: collector push → windower pop
	analyse       *obs.Histogram // stat-farm window analysis
	reorderWait   *obs.Histogram // reorder buffer: analysis done → in-order publish

	// Pipeline throughput and backpressure counters.
	quantaLocal  *obs.Counter
	quantaRemote *obs.Counter
	deferred     *obs.Counter // pool slabs ended unrun by congestion deferral
	spilled      *obs.Counter // batches spilled from a hard-bounded ingress ring
	requeued     *obs.Counter // slabs requeued off dead/timed-out workers
	windows      *obs.Counter // windows published in order
	cutSummaries *obs.Counter // cuts summarised by the stat farm (once each)
	spansDropped *obs.Counter // trace spans discarded at the per-job cap

	// Result-cache counters (the single source for GET /cache and
	// healthz; the old Server atomics are gone).
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheAttaches  *obs.Counter
	cacheRedirects *obs.Counter

	// Replicated-tier counters.
	leaseTakeovers *obs.Counter // leases stolen + adopted from dead owners
	handoffsOut    *obs.Counter // leases released with a handoff pointer (drain/rebalance)
	handoffsIn     *obs.Counter // handoff adoptions performed here

	// Capped dynamic-label families.
	submits      *obs.CounterVec // outcome: created/queued/cache_hit/attached/...
	tenantQuanta *obs.CounterVec // per-tenant dispatched quanta
	workerQuanta *obs.CounterVec // per-remote-worker delivered quanta

	// Cross-layer metric sets handed to the store and lease packages.
	walMetrics   store.Metrics
	leaseMetrics lease.Metrics
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{reg: reg}

	m.admissionWait = reg.Histogram("cwc_admission_wait_seconds",
		"Time a job waited in its tenant's admission queue before dispatch.")
	m.schedWait = reg.Histogram("cwc_sched_wait_seconds",
		"Time a quantum waited in the pool scheduler queue between push and pop-to-dispatch.")
	m.localQuantum = reg.Histogram("cwc_quantum_seconds",
		"Quantum-batch execution time by site.", "site", "local")
	m.remoteQuantum = reg.Histogram("cwc_quantum_seconds",
		"Quantum-batch execution time by site.", "site", "remote")
	m.remoteRTT = reg.Histogram("cwc_remote_rtt_seconds",
		"Remote slab round trip: grant to result delivery at the owner.")
	m.ingressWait = reg.Histogram("cwc_ingress_wait_seconds",
		"Sample-batch residency in the per-job ingress ring between collector and windower.")
	m.analyse = reg.Histogram("cwc_analyse_seconds",
		"Stat-farm per-window analysis time.")
	m.reorderWait = reg.Histogram("cwc_reorder_wait_seconds",
		"Time an analysed window waited in the reorder buffer before in-order publish.")

	m.quantaLocal = reg.Counter("cwc_quanta_total",
		"Quantum batches completed by site.", "site", "local")
	m.quantaRemote = reg.Counter("cwc_quanta_total",
		"Quantum batches completed by site.", "site", "remote")
	m.deferred = reg.Counter("cwc_deferred_quanta_total",
		"Pool slabs ended without running a quantum by congestion deferral (job ingress over its high-water mark).")
	m.spilled = reg.Counter("cwc_spilled_batches_total",
		"Sample batches spilled from a hard-bounded ingress ring (fails the job).")
	m.requeued = reg.Counter("cwc_requeued_tasks_total",
		"Slabs requeued off dead or timed-out remote workers.")
	m.windows = reg.Counter("cwc_windows_published_total",
		"Windows published in order across all jobs.")
	m.cutSummaries = reg.Counter("cwc_cut_summaries_total",
		"Cuts summarised (per-species ensemble moments and median) by the stat farm: each cut once, however many windows contain it.")
	m.spansDropped = reg.Counter("cwc_trace_dropped_spans_total",
		"Trace spans discarded because a job's span log hit its cap.")

	m.cacheHits = reg.Counter("cwc_cache_requests_total",
		"Result-cache lookups by result.", "result", "hit")
	m.cacheMisses = reg.Counter("cwc_cache_requests_total",
		"Result-cache lookups by result.", "result", "miss")
	m.cacheAttaches = reg.Counter("cwc_cache_requests_total",
		"Result-cache lookups by result.", "result", "attach")
	m.cacheRedirects = reg.Counter("cwc_cache_requests_total",
		"Result-cache lookups by result.", "result", "redirect")

	m.leaseTakeovers = reg.Counter("cwc_lease_takeovers_total",
		"Expired or released leases stolen and adopted from other replicas.")
	m.handoffsOut = reg.Counter("cwc_handoffs_total",
		"Lease handoffs by direction.", "direction", "out")
	m.handoffsIn = reg.Counter("cwc_handoffs_total",
		"Lease handoffs by direction.", "direction", "in")

	m.submits = reg.CounterVec("cwc_submits_total",
		"Job submissions by admission outcome.", "outcome", maxOutcomeSeries)
	m.tenantQuanta = reg.CounterVec("cwc_tenant_quanta_total",
		"Quantum batches dispatched per tenant (capped cardinality).", "tenant", maxTenantSeries)
	m.workerQuanta = reg.CounterVec("cwc_worker_quanta_total",
		"Quantum batches delivered per remote worker (capped cardinality).", "worker", maxWorkerSeries)

	m.walMetrics = store.Metrics{
		Append: reg.Histogram("cwc_wal_append_seconds",
			"WAL journal frame write time."),
		Fsync: reg.Histogram("cwc_wal_fsync_seconds",
			"WAL journal fsync time."),
	}
	m.leaseMetrics = lease.Metrics{
		Acquire: reg.Counter("cwc_lease_ops_total",
			"Lease-manager operations by kind.", "op", "acquire"),
		Steal: reg.Counter("cwc_lease_ops_total",
			"Lease-manager operations by kind.", "op", "steal"),
		Renew: reg.Counter("cwc_lease_ops_total",
			"Lease-manager operations by kind.", "op", "renew"),
		RenewLost: reg.Counter("cwc_lease_ops_total",
			"Lease-manager operations by kind.", "op", "renew_lost"),
		Release: reg.Counter("cwc_lease_ops_total",
			"Lease-manager operations by kind.", "op", "release"),
		HandoffRelease: reg.Counter("cwc_lease_ops_total",
			"Lease-manager operations by kind.", "op", "handoff_release"),
	}
	return m
}

// registerServerFuncs installs the scrape-time sampled gauges. They
// close over the same Server methods /healthz reads, so the two
// surfaces can never disagree.
func (m *serveMetrics) registerServerFuncs(s *Server) {
	reg := m.reg
	reg.GaugeFunc("cwc_jobs", "Jobs in the registry by lifecycle phase.",
		func() float64 { t, _, _ := s.jobCounts(); return float64(t) }, "state", "total")
	reg.GaugeFunc("cwc_jobs", "Jobs in the registry by lifecycle phase.",
		func() float64 { _, a, _ := s.jobCounts(); return float64(a) }, "state", "active")
	reg.GaugeFunc("cwc_jobs", "Jobs in the registry by lifecycle phase.",
		func() float64 { _, _, q := s.jobCounts(); return float64(q) }, "state", "queued")
	reg.GaugeFunc("cwc_pool_workers", "Shared simulation pool width.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("cwc_stat_engines", "Shared statistical engine farm width.",
		func() float64 { return float64(s.stats.Engines()) })
	reg.GaugeFunc("cwc_tenants", "Tenants known to the control plane.",
		func() float64 { return float64(len(s.Tenants())) })
	reg.GaugeFunc("cwc_remote_workers", "Remote sim workers by liveness.",
		func() float64 { t, _ := s.remoteWorkerCounts(); return float64(t) }, "state", "known")
	reg.GaugeFunc("cwc_remote_workers", "Remote sim workers by liveness.",
		func() float64 { _, l := s.remoteWorkerCounts(); return float64(l) }, "state", "live")
	if s.cache != nil {
		reg.GaugeFunc("cwc_cache_entries", "Content-addressed result cache index size.",
			func() float64 { return float64(s.cache.Len()) })
	}
	if s.opts.ReplicaID != "" {
		reg.GaugeFunc("cwc_draining", "1 while this replica is draining.",
			func() float64 {
				if s.draining.Load() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("cwc_jobs_owned", "Job leases this replica holds.",
			func() float64 { return float64(len(s.leases.HeldJobs())) })
		reg.GaugeFunc("cwc_peers_live", "Live peer replicas in the tier directory.",
			func() float64 { return float64(len(s.livePeers())) })
	}
}

// submitOutcomeLabel classifies one submission for cwc_submits_total.
func submitOutcomeLabel(res SubmitResult, err error) string {
	switch {
	case err == nil && res.CacheHit:
		return "cache_hit"
	case err == nil && res.Attached:
		return "attached"
	case err == nil && res.Job != nil && res.Job.State() == StateQueued:
		return "queued"
	case err == nil:
		return "created"
	}
	var redir *AttachRedirectError
	switch {
	case errors.As(err, &redir):
		return "redirect"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, errSaturated):
		return "saturated"
	case errors.Is(err, ErrQuotaExceeded):
		return "quota"
	case errors.Is(err, ErrBusy):
		return "busy"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "invalid"
	}
}
