package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/obs"
	"cwcflow/internal/platform"
	"cwcflow/internal/serve/sched"
	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/store"
	"cwcflow/internal/window"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued means the job was admitted but its tenant's concurrency
	// quota is exhausted: it waits in the tenant's admission queue (ordered
	// by priority class, then submission order) until a slot frees.
	StateQueued State = "queued"
	// StateRunning means simulation tasks are scheduled on the pool and
	// windows are streaming out.
	StateRunning State = "running"
	// StateDone means every trajectory completed and every window was
	// analysed.
	StateDone State = "done"
	// StateCancelled means the job was cancelled before completion.
	StateCancelled State = "cancelled"
	// StateFailed means a simulator or analysis error aborted the job.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// JobSpec is the wire format of a job submission.
type JobSpec struct {
	// Model names a built-in model (see core.ModelRef): "neurospora",
	// "neurospora-nrm", "neurospora-cwc", "lotka-volterra", "sir",
	// "schlogl", "enzyme".
	Model string `json:"model"`
	// Omega is the system size for models that take one (0 = default).
	Omega float64 `json:"omega,omitempty"`
	// Trajectories is the Monte Carlo ensemble size.
	Trajectories int `json:"trajectories"`
	// End is the simulated horizon.
	End float64 `json:"end"`
	// Quantum is the simulated time per scheduling step (0 = one period):
	// the scheduling granularity floor — the pool coalesces cheap quanta
	// up to a window boundary (see sliceSteps).
	Quantum float64 `json:"quantum,omitempty"`
	// Period is the sampling interval τ.
	Period float64 `json:"period"`
	// WindowSize and WindowStep configure the sliding windows of cuts
	// (0 = defaults: size 16, tumbling).
	WindowSize int `json:"window,omitempty"`
	WindowStep int `json:"step,omitempty"`
	// Species selects the observable indices to analyse (empty = all).
	Species []int `json:"species,omitempty"`
	// KMeansK clusters each window's last cut into K groups (0 = off).
	KMeansK int `json:"kmeans_k,omitempty"`
	// PeriodHalfWin enables period detection with the given smoothing
	// half-window (0 = off).
	PeriodHalfWin int `json:"period_halfwin,omitempty"`
	// Seed is the base RNG seed (per-trajectory seeds derive from it).
	Seed int64 `json:"seed,omitempty"`
	// Priority is the job's priority class within its tenant's admission
	// queue: higher classes dispatch first when a concurrency slot frees
	// (0 = normal). Priority orders admission only — once running, every
	// job's quanta are scheduled by the pool's dispatch discipline.
	Priority int `json:"priority,omitempty"`
}

// Progress counts a job's work, both completed and total, plus the
// backpressure counters of the job's path through the shared pool and stat
// farm: QueueDepth is the number of sample batches waiting between the
// pool collector and the job's windower, DeferredQuanta counts simulation
// quanta the pool postponed because that queue was over its high-water
// mark, StatsInFlight is the number of this job's windows currently on the
// shared stat farm, and SpilledBatches counts batches dropped on the floor
// by the last-resort overflow bound (a job that spilled cannot complete
// and is failed).
type Progress struct {
	TasksDone      int    `json:"tasks_done"`
	Trajectories   int    `json:"trajectories"`
	Samples        int64  `json:"samples"`
	Cuts           int    `json:"cuts"`
	TotalCuts      int    `json:"total_cuts"`
	Windows        int    `json:"windows"`
	TotalWindows   int    `json:"total_windows"`
	Reactions      uint64 `json:"reactions"`
	DeadTasks      int    `json:"dead_tasks,omitempty"`
	QueueDepth     int    `json:"queue_depth"`
	DeferredQuanta int64  `json:"deferred_quanta,omitempty"`
	StatsInFlight  int    `json:"stats_in_flight,omitempty"`
	SpilledBatches int64  `json:"spilled_batches,omitempty"`
	// RemoteTasksDone counts trajectories whose final slab ran on a remote
	// sim worker; RequeuedTasks counts slabs rescheduled off a dead or
	// timed-out worker (a re-run resumes from the trajectory's last
	// snapshot, or deduplicates its replayed prefix, so requeues never
	// change the result stream).
	RemoteTasksDone int64 `json:"remote_tasks_done,omitempty"`
	RequeuedTasks   int64 `json:"requeued_tasks,omitempty"`
}

// LatencySummary summarises a streaming latency distribution in
// milliseconds (P50/P95 via the P² estimator).
type LatencySummary struct {
	N      int64   `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
}

// Status is the wire format of a job's state snapshot.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Tenant is the submitting tenant's id (the X-CWC-Tenant header, or
	// the default tenant for anonymous submissions).
	Tenant string `json:"tenant,omitempty"`
	// Owner is the replica driving the job, set only when answering for a
	// job another replica owns (single-server deployments omit it).
	Owner string `json:"owner,omitempty"`
	// QueuePosition is the job's 1-based position in its tenant's
	// admission queue while StateQueued (0 otherwise).
	QueuePosition int             `json:"queue_position,omitempty"`
	SubmittedAt   time.Time       `json:"submitted_at"`
	FinishedAt    *time.Time      `json:"finished_at,omitempty"`
	Error         string          `json:"error,omitempty"`
	Progress      Progress        `json:"progress"`
	WindowLatency *LatencySummary `json:"window_latency,omitempty"`
	// EtaSeconds projects the remaining runtime by replaying the job's
	// measured per-quantum service times through the platform DES.
	// Absent until enough quanta were measured (or for very large jobs);
	// a lower bound when several jobs share the pool.
	EtaSeconds *float64 `json:"eta_seconds,omitempty"`
	// Recovered marks a job reloaded from the durable store after a
	// restart — either re-served from its journaled results (terminal
	// jobs) or resumed from its last checkpoint (in-flight jobs).
	Recovered bool `json:"recovered,omitempty"`
	// SpecDigest is the content address of the job's canonical spec (see
	// SpecDigest): identical digests mean identical results, which is
	// what lets repeat submissions answer from the cache.
	SpecDigest string `json:"spec_digest,omitempty"`
	// CacheHit is set on submission responses answered without creating a
	// job: from the result cache (a completed job) or by attaching to an
	// in-flight one. Never set on status polls.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Subscribers is the number of clients currently streaming this job.
	Subscribers int `json:"subscribers,omitempty"`
	// Attached counts submissions answered by attaching to this job while
	// it ran.
	Attached int64 `json:"attached,omitempty"`
	// TraceID identifies the job's span log (GET /jobs/{id}/trace). It is
	// the client's traceparent trace id when one was submitted, or a
	// server-minted one otherwise.
	TraceID string `json:"trace_id,omitempty"`
}

// subscriber is one streaming client's bounded mailbox. Windows that
// arrive while the mailbox is full are counted as lost rather than
// blocking the job's analysis stage.
type subscriber struct {
	ch   chan core.WindowStat
	lost int // guarded by the job mutex
}

// Job is one simulation-analysis run multiplexed onto the shared
// infrastructure: its trajectory tasks interleave with every other job's
// on the simulation pool, and its core.Analysis — the same one core.Run
// drives — turns the samples into windows. The job's windower goroutine
// drains the ingress queue into the Analysis, which feeds the server's
// core.StatFarm; the Analysis's reorder half, under the job mutex, hands
// the windows back in order to jobWindows.PublishLocked, which journals
// them and fans them out to the result ring and the live subscribers.
type Job struct {
	id          string
	spec        JobSpec
	cfg         core.Config
	species     []int
	totalTasks  int
	totalCuts   int
	totalWins   int
	poolWorkers int
	resultCap   int
	subCap      int

	// Tenancy. tenant is the owning tenant's id; sampleCost is the job's
	// sample-budget charge (trajectories × cuts), held from admission to
	// the terminal transition; flow is the tenant's WFQ flow (nil under
	// the fifo scheduler); tenantQuanta points at the tenant's dispatched
	// quantum counter. All are set before any job goroutine starts.
	// admission is the job's slot accounting phase, guarded by the
	// *server* mutex (see Server.jobFinished); queuePos mirrors the job's
	// 1-based admission-queue position for Status (0 = not queued).
	// startFn, set for queued jobs, launches the job when a slot frees;
	// onTerminal is the server's accounting/dispatch callback, invoked
	// exactly once at the end of the terminal transition.
	// digest is the content address of the job's canonical spec, set
	// before the job is visible to any other goroutine (submission or
	// recovery) and immutable after — readable without locks. attached
	// counts submissions that shared this job instead of starting one.
	digest   string
	attached atomic.Int64

	tenant       string
	sampleCost   int64
	flow         *sched.Flow[core.SimSlab]
	tenantQuanta *atomic.Int64
	admission    int
	queuePos     atomic.Int32
	startFn      func()
	onTerminal   func(*Job)

	// Observability. metrics is the server's metric set (nil only in the
	// terminal shells of recovered jobs, which never run); obsTenantQuanta
	// is the job's cached per-tenant quantum counter child; trace is the
	// job's bounded span log, created with the job and readable
	// concurrently (GET /jobs/{id}/trace); enqueuedAt stamps
	// admission-queue entry for the admission-wait histogram. All set
	// before any job goroutine starts.
	metrics         *serveMetrics
	obsTenantQuanta *obs.Counter
	trace           *obs.Trace
	enqueuedAt      time.Time
	// origin labels this server's spans in the trace (the replica id, or
	// "local" standalone); logf, when non-nil, gets the one-line trace
	// summary at the terminal transition.
	origin string
	logf   func(format string, args ...any)

	ctx    context.Context
	cancel context.CancelFunc
	in     *ingress // pool collector → windower, never blocking the collector

	// lowWater is the ingress depth below which the windower kicks the
	// scheduler, so heads held back by congestion are granted again.
	lowWater int

	// statSlots caps this job's windows in flight on the shared stat farm
	// (fairness: one heavy tenant cannot occupy every engine). The
	// Analysis acquires a slot before submitting; the engine side frees it.
	// statHook is Options.statHook.
	statSlots chan struct{}
	statHook  func(jobID string)

	deferred   atomic.Int64 // quanta the pool deferred due to congestion
	remoteDone atomic.Int64 // trajectories whose final slab ran on a remote worker
	requeued   atomic.Int64 // slabs requeued off dead workers

	// Durability (all nil/zero when the server runs without a store).
	// persist journals published windows, trajectory checkpoints and the
	// terminal transition; noPersist suppresses the terminal event during
	// server shutdown, which is not a job outcome — the job must recover
	// as running. A recovered job's Analysis starts at window startSeq,
	// the durable frontier (its scheduler's heads start at that window's
	// first cut). recovered marks both resumed and re-served jobs in Status.
	persist    *store.Store
	ckptEvery  int // samples between trajectory checkpoints
	startSeq   int
	recovered  bool
	noPersist  atomic.Bool
	recStatus  *Status // terminal recovered jobs: the journaled final status
	persistErr error   // first window-journal failure, guarded by mu
	// drainCkpt, when set, makes every in-flight task checkpoint at its
	// next quantum boundary regardless of the ckptEvery cadence: a drain
	// or handoff wants the frontier as fresh as the journal can carry
	// before the lease is released with a pointer to it.
	drainCkpt atomic.Bool

	// sched is the job's slab scheduler, built with the job: every
	// trajectory runs through it, every delivery passes its dedup filter,
	// and the terminal transition stops it.
	sched *slabSched

	mu        sync.Mutex
	lastCkpt  map[int]int // per-trajectory sample index of the last checkpoint
	state     State
	errMsg    string
	submitted time.Time
	finished  time.Time
	samples   int64
	cuts      int
	windows   int
	tasksDone int
	deadTasks int
	reactions uint64
	quantum   stats.Welford // seconds of service per simulation quantum
	winLat    stats.Welford // seconds of analysis per window
	winP50    *stats.P2Quantile
	winP95    *stats.P2Quantile
	results   []core.WindowStat // ring of the most recent windows
	firstKept int               // window index of results[0]
	subs      map[*subscriber]struct{}

	// etaAt/etaVal/etaOK cache the DES projection so status polling does
	// not re-run the simulation on every request.
	etaAt  time.Time
	etaVal float64
	etaOK  bool
}

// newJob makes a job of this server, submitted or recovered, together with
// its slab scheduler; cuts is the samples per trajectory. The caller sets
// the tenancy fields, then registers and starts the job.
func (s *Server) newJob(id string, spec JobSpec, cfg core.Config, species []int, cuts int) *Job {
	opts, poolWorkers := s.opts, s.pool.Workers()
	ctx, cancel := context.WithCancel(context.Background())
	p50, _ := stats.NewP2Quantile(0.5)
	p95, _ := stats.NewP2Quantile(0.95)
	// The ingress high-water mark is where the pool starts deferring this
	// job's quanta; the hard capacity sits far enough above it that the
	// quanta already in flight through the pool (at most one per worker
	// plus the collector queue) can always land without spilling. The
	// maxJobWorkerStreams term covers remote delivery: each of the job's
	// worker-connection readers blocks on congestion holding at most one
	// undelivered batch, and the scheduler opens at most that many
	// streams, so remote pushes can never overshoot the bound either.
	highWater := opts.SampleBuffer
	capacity := highWater + poolWorkers + opts.QueueDepth + 8 + maxJobWorkerStreams
	lowWater := highWater / 2
	if lowWater < 1 {
		lowWater = 1
	}
	// Per-job cap on concurrently analysed windows: half the farm (rounded
	// up), so a single stats-heavy tenant leaves engines for everyone else.
	statInflight := (s.stats.Engines() + 1) / 2
	m := s.m
	j := &Job{
		id:          id,
		spec:        spec,
		cfg:         cfg,
		species:     species,
		totalTasks:  cfg.Trajectories,
		totalCuts:   cuts,
		totalWins:   window.WindowCount(cuts, cfg.WindowSize, cfg.WindowStep),
		sampleCost:  int64(cfg.Trajectories) * int64(cuts),
		poolWorkers: poolWorkers,
		resultCap:   opts.ResultBuffer,
		subCap:      opts.SubscriberBuffer,
		ctx:         ctx,
		cancel:      cancel,
		in:          newIngress(highWater, capacity, m.ingressWait),
		lowWater:    lowWater,
		metrics:     m,
		trace:       obs.NewTrace("", m.spansDropped),
		origin:      jobOrigin(opts),
		logf:        opts.Logf,
		statSlots:   make(chan struct{}, statInflight),
		statHook:    opts.statHook,
		state:       StateRunning,
		submitted:   time.Now(),
		winP50:      p50,
		winP95:      p95,
		subs:        make(map[*subscriber]struct{}),
		onTerminal:  s.jobFinished,
	}
	j.startFn = func() { _ = s.startJob(j) } // a failure lands on the job
	if s.store != nil {
		j.initPersist(s.store, opts.CheckpointSamples)
	}
	j.sched = newSlabSched(s, j)
	return j
}

// jobOrigin is the span origin for this server's own lifecycle spans.
func jobOrigin(opts Options) string {
	if opts.ReplicaID != "" {
		return opts.ReplicaID
	}
	return "local"
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Trace returns the job's span log (never nil).
func (j *Job) Trace() *obs.Trace { return j.trace }

// initPersist wires the job to the durable store. Call before any job
// goroutine starts.
func (j *Job) initPersist(st *store.Store, ckptEvery int) {
	j.persist = st
	j.ckptEvery = ckptEvery
	j.lastCkpt = make(map[int]int)
}

// initResume primes a recovered job with the journal's durable state:
// the published-window frontier (resume cut + window sequence), the
// retained result tail, the original submission time, and the scheduler's
// heads at the resume cut. Call before any job goroutine starts.
func (j *Job) initResume(rec *store.JobRecord) {
	windows := rec.WindowCount
	cut := windows * j.cfg.WindowStep
	j.startSeq = windows
	j.recovered = true
	j.submitted = rec.SubmittedAt
	j.windows = windows
	j.results = append(j.results, rec.Windows...)
	j.firstKept = rec.FirstRetained
	j.cuts = min(cut, j.totalCuts)
	j.sched.resume(rec, cut)
}

// checkpointDue reports whether trajectory traj's snapshot at sample index
// idx should be journaled — it is ckptEvery samples past the trajectory's
// last checkpoint — and if so records idx as that checkpoint. A drain
// overrides the cadence (any progress past the last checkpoint is worth
// journaling before the handoff) but still dedupes: a trajectory that has
// not advanced, or a duplicated or stale offer, has nothing to add.
func (j *Job) checkpointDue(traj, idx int) bool {
	force := j.drainCkpt.Load()
	j.mu.Lock()
	defer j.mu.Unlock()
	last, seen := j.lastCkpt[traj]
	if seen && idx-last < j.ckptEvery && !(force && idx > last) {
		return false
	}
	j.lastCkpt[traj] = idx
	return true
}

// maybeCheckpoint journals the task's engine snapshot when a checkpoint is
// due. Engines that cannot snapshot (the CWC term-rewriting engine) are
// silently skipped — recovery replays them from the seed instead.
func (j *Job) maybeCheckpoint(t *sim.Task) {
	idx := t.NextIndex()
	if !j.checkpointDue(t.Traj, idx) {
		return
	}
	data, ok, err := t.Snapshot()
	if err != nil || !ok {
		return
	}
	_ = j.persist.AppendCheckpoint(j.id, t.Traj, idx, data)
}

// durableWindows is the job's journaled window frontier — what a
// handoff pointer may safely advertise. PublishLocked appends each
// window before counting it, so while the journal is healthy the
// in-memory count IS the durable frontier; after a journal failure the
// true frontier is unknown, and 0 (a trivially safe lower bound — the
// adopter peeks the real journal anyway) is returned instead.
func (j *Job) durableWindows() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.persistErr != nil {
		return 0
	}
	return j.windows
}

// remoteCheckpoint journals the engine snapshot a remote slab ended with
// (ResultMsg.Snap), advancing the durable frontier with remote progress
// at the same cadence a local checkpoint follows.
func (j *Job) remoteCheckpoint(traj, next int, data []byte) {
	if j.persist == nil || j.noPersist.Load() || !j.checkpointDue(traj, next) {
		return
	}
	_ = j.persist.AppendCheckpoint(j.id, traj, next, data)
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) terminal() bool { return j.State().Terminal() }

// Cancel moves the job to StateCancelled (no-op once terminal). Slabs
// still queued or in flight on the pool are dropped at their next
// scheduling step, and no further slab is granted.
func (j *Job) Cancel() { j.setTerminal(StateCancelled, "") }

func (j *Job) fail(err error) { j.setTerminal(StateFailed, err.Error()) }

// setTerminal performs the one idempotent transition into a final state:
// it stamps the finish time, cancels the job context (which stops the
// windower and any worker dial in progress), stops the slab scheduler —
// no slab is granted after it — drains the ingress queue and closes every
// subscriber's channel.
func (j *Job) setTerminal(st State, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = st
	j.errMsg = errMsg
	j.finished = time.Now()
	subs := j.subs
	j.subs = nil
	submitted, finished := j.submitted, j.finished
	j.mu.Unlock()
	detail := string(st)
	if errMsg != "" {
		detail += ": " + errMsg
	}
	j.trace.Span("run", j.origin, detail, submitted, finished)
	if j.logf != nil {
		j.logf("job %s %s: %s", j.id, st, j.trace.Summary())
	}
	j.cancel()
	j.sched.stop()
	// Journal the outcome (fsynced): completed results must outlive the
	// process, and failures/cancellations must not resume on restart.
	// Shutdown is the exception (noPersist): the job recovers as running.
	// Best effort by construction — the job is already terminal, so a
	// failed append (journal poisoned by an earlier write error) can only
	// mean the job recovers as running on restart and re-runs, which
	// determinism makes safe.
	if j.persist != nil && !j.noPersist.Load() {
		final := j.status(false)
		statusJSON, err := json.Marshal(&final)
		if err != nil {
			statusJSON = nil
		}
		_ = j.persist.AppendTerminal(j.id, string(st), errMsg, statusJSON)
	}
	j.in.drain()
	for sub := range subs {
		close(sub.ch)
	}
	// Last, with no locks held: release the job's tenant slot and budget
	// and let the server dispatch queued jobs into the freed capacity.
	if j.onTerminal != nil {
		j.onTerminal(j)
	}
}

// accept routes one slice into the job — from the pool collector for
// locally-simulated slabs, and from the scheduler's per-worker readers for
// slabs simulated on the cluster (whose slices never carry SlabEnd: the
// reader returns their heads to the FIFO itself). It NEVER blocks: the
// batch lands in the job's bounded ingress queue (or, past the hard
// bound, spills), so a job whose analysis lags cannot pause delivery to
// any other job. Deliveries
// of one trajectory arrive in order from whichever single site currently
// holds its slab, and its final task-done marker arrives after every
// sample batch, so closing the ingress here is race-free. The scheduler's
// filter first drops whatever a replayed slab re-simulated below the
// trajectory's frontier (a requeue, a resume from a checkpoint below the
// resume cut) and duplicate completion markers, before any accounting.
func (j *Job) accept(d core.Slice) {
	j.sched.filter(&d)
	if d.Err != nil {
		j.fail(fmt.Errorf("serve: trajectory simulation: %w", d.Err))
	}
	if d.Batch != nil {
		if j.terminal() {
			d.Batch.Release()
		} else if spilled := j.in.push(d.Batch); spilled > 0 {
			// The overflow ring dropped a batch: cuts can never complete,
			// so the job cannot finish correctly. Fail it rather than run
			// a simulation whose analysis silently lost data.
			j.metrics.spilled.Add(uint64(spilled))
			j.fail(fmt.Errorf("serve: analysis backlog overflow: %d sample batches spilled", spilled))
		}
	}
	j.mu.Lock()
	if n := d.Quanta; n > 1 {
		// A remote slab reports many quanta at once: one observation per
		// quantum keeps the ETA model's dispersion honest.
		j.quantum.AddN(d.Elapsed.Seconds()/float64(n), int64(n))
	} else if d.Elapsed > 0 {
		j.quantum.Add(d.Elapsed.Seconds())
	}
	var closeStream bool
	if d.TaskDone {
		j.tasksDone++
		j.reactions += d.Steps
		if d.Dead {
			j.deadTasks++
		}
		closeStream = j.tasksDone == j.totalTasks
	}
	j.mu.Unlock()
	if closeStream {
		j.in.close()
	}
	if d.SlabEnd {
		// Only now, with the slab's last samples in the ingress, may the
		// trajectory's next slab be granted (possibly to another site):
		// per-trajectory sample order into the windower is preserved.
		j.sched.localSlabEnd(d.Traj)
	}
}

// congested reports whether the job's ingress backlog is over its
// high-water mark; the scheduler then grants none of the job's slabs, and
// a pool worker ends a granted one without simulating into a queue the
// job's analysis cannot drain.
func (j *Job) congested() bool { return j.in.congested() }

// noteDeferred counts one deferred dispatch (a slab the pool ended
// unrun), in the job's progress (per-job JSON) and the service-wide
// counter.
func (j *Job) noteDeferred() {
	j.deferred.Add(1)
	j.metrics.deferred.Inc()
}

// unparkIfDrained kicks the scheduler once a congested ingress backlog has
// drained below the low-water mark: heads held back by the congestion are
// granted again and readers blocked on it resume. Called by the windower
// between batches. Every other grant follows the event that makes it
// possible (a slab's end, a lost worker, the watchdog's tick), so kicking
// after every batch would only contend for the scheduler's mutex.
func (j *Job) unparkIfDrained() {
	if j.in.drainedBelow(j.lowWater) {
		j.sched.kick()
	}
}

// runWindower is the job's stream-reshaping goroutine, the windower half
// of its core.Analysis: it drains the ingress queue into the Analysis,
// which submits every completed window to the shared stat farm. One
// goroutine per job, never one per trajectory or per window: the service's
// goroutine count stays at O(pool workers + stat engines + active jobs).
func (j *Job) runWindower(farm *core.StatFarm) {
	// A recovered job's analysis starts at the durable window frontier:
	// cuts below it were consumed into journaled windows, and the window
	// sequence numbers continue where the crashed run's left off.
	pub := &jobWindows{Job: j}
	an, err := core.NewAnalysis(j.ctx, j.cfg, j.species, farm, j.statSlots, pub, j.startSeq)
	if err != nil {
		j.fail(err)
		return
	}
	pub.an = an // before the first window reaches an engine
	// The job's first grant, here rather than on the submitter: building
	// the ensemble's tasks costs the caller of Submit nothing.
	j.sched.kick()
	for {
		batch, done, spilled := j.in.pop()
		if spilled > 0 {
			// accept already failed the job; stop consuming, but release
			// the batch this pop may have handed us first.
			if batch != nil {
				batch.Release()
			}
			return
		}
		if batch == nil {
			if done {
				end, err := an.Close(&j.mu)
				if err != nil {
					j.fail(err)
				} else if end {
					j.setTerminal(StateDone, "")
				}
				return
			}
			j.unparkIfDrained()
			select {
			case <-j.in.notify:
				continue
			case <-j.ctx.Done():
				return // already terminal (cancelled, failed, or closing)
			}
		}
		// The stream inside the Analysis copies every state into recycled
		// cut storage, so the batch goes back to the pool as soon as its
		// samples are pushed.
		n := len(batch.Samples)
		if err := an.Push(batch); err != nil {
			if j.ctx.Err() == nil {
				j.fail(err)
			}
			return
		}
		j.mu.Lock()
		j.samples += int64(n)
		j.cuts = an.Cuts()
		j.mu.Unlock()
		j.unparkIfDrained()
	}
}

// jobWindows is the job's core.Publisher: the stat farm's engines report
// the job's windows through it. The job does not point back at it, so the
// Analysis — its stream's cut storage above all — is garbage once the
// windower has returned and no window is in flight, while the job itself
// stays registered until it is evicted.
type jobWindows struct {
	*Job
	an *core.Analysis // reorder half under j.mu
}

// Analysing skips the windows of a terminal job. It is also where the
// Options.statHook test seam emulates an expensive statistical
// configuration, or a stalled tenant, per job.
func (j *jobWindows) Analysing() bool {
	if j.terminal() {
		return false
	}
	if j.statHook != nil {
		j.statHook(j.id)
	}
	return true
}

// Analysed receives one analysed window from a stat engine and, under the
// job mutex, lets the Analysis publish every consecutively-ready window in
// window order — the ordered reassembly that makes N engines
// indistinguishable from 1 in the result stream.
func (j *jobWindows) Analysed(seq, fresh int, ws core.WindowStat, lat time.Duration, err error) {
	j.metrics.analyse.Observe(lat)
	j.metrics.cutSummaries.Add(uint64(fresh))
	if err != nil {
		j.fail(err)
		return
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	done := j.an.Reorder(seq, fresh, ws, lat)
	perr := j.persistErr
	j.mu.Unlock()
	if perr != nil {
		// Journaling a window failed: completing would acknowledge
		// durable results the journal does not hold. Recovery will
		// resume the job from the last good frontier instead.
		j.fail(perr)
		return
	}
	if done {
		j.setTerminal(StateDone, "")
	}
}

// PublishLocked appends one analysed window to the bounded result ring and
// fans it out to the live subscribers without ever blocking: a subscriber
// whose mailbox is full loses the window (and is told how many it lost
// when the stream ends). The Analysis calls it in window order, under
// j.mu.
func (j *jobWindows) PublishLocked(ws core.WindowStat, lat, wait time.Duration) {
	j.metrics.reorderWait.Observe(wait)
	// Journal before counting: the durable frontier must never lead the
	// in-memory one. The append is one unsynced write under the job
	// mutex — order across publishes is what recovery depends on. A
	// failed append would freeze the durable frontier while the
	// in-memory one advances (a later terminal "done" would then serve
	// silently incomplete results after a restart), so the first failure
	// is recorded here and fails the job once the mutex is released.
	if j.persist != nil && j.persistErr == nil {
		if err := j.persist.AppendWindow(j.id, j.windows, &ws); err != nil {
			j.persistErr = fmt.Errorf("serve: journaling window %d: %w", j.windows, err)
		}
	}
	if j.windows == j.startSeq {
		// First window out of this run of the job: the time-to-first-result
		// edge of the trace. The detail counts the trajectories already
		// finished, so a streaming job shows how early its first window came.
		j.trace.Event("first-window", "", fmt.Sprintf("tasks_done=%d", j.tasksDone))
	}
	j.windows++
	j.metrics.windows.Inc()
	sec := lat.Seconds()
	j.winLat.Add(sec)
	j.winP50.Add(sec)
	j.winP95.Add(sec)
	j.results = append(j.results, ws)
	if len(j.results) > j.resultCap {
		// Evict in batches (a quarter of the cap) so the shift is
		// amortized O(1) per publish rather than O(cap) once full.
		drop := len(j.results) - j.resultCap + j.resultCap/4
		if drop > len(j.results) {
			drop = len(j.results)
		}
		j.results = append(j.results[:0], j.results[drop:]...)
		j.firstKept += drop
	}
	for sub := range j.subs {
		select {
		case sub.ch <- ws:
		default:
			sub.lost++
		}
	}
}

// subscribe atomically snapshots the buffered windows from index from
// onward and registers a live subscriber, so the caller sees every window
// exactly once with no gap between replay and live delivery. gap counts
// requested windows already evicted from the bounded result ring (the
// replay then starts above from). A nil subscriber means the job is
// already terminal and the replay is all there is.
func (j *Job) subscribe(from int) (replay []core.WindowStat, gap int, sub *subscriber, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if next := j.firstKept + len(j.results); from > next {
		// Beyond the next window to be published: replaying from here
		// would silently deliver windows the caller asked to skip.
		return nil, 0, nil, fmt.Errorf("serve: from=%d is beyond the %d windows published so far", from, next)
	}
	if from < j.firstKept {
		gap = j.firstKept - from
		from = j.firstKept
	}
	if idx := from - j.firstKept; idx < len(j.results) {
		replay = append(replay, j.results[idx:]...)
	}
	if j.state.Terminal() {
		return replay, gap, nil, nil
	}
	sub = &subscriber{ch: make(chan core.WindowStat, j.subCap)}
	j.subs[sub] = struct{}{}
	return replay, gap, sub, nil
}

// Follow delivers the job's windows from index from onward to fn, each
// once and in order: the windows already published first, then live ones
// as the analysis publishes them. open, when non-nil, runs once after the
// subscription is in place and before the first window, with the number
// of requested windows already evicted from the bounded result ring. A
// from beyond the windows published so far fails before open runs.
//
// Follow returns nil once the job is terminal and fn has seen every
// window offered to it, ctx's error if ctx ends first, or the first error
// from open or fn. lost counts the windows fn did not see: the evicted
// ones plus those the subscriber's bounded mailbox dropped while fn lagged
// (Options.SubscriberBuffer).
func (j *Job) Follow(ctx context.Context, from int, open func(gap int) error, fn func(core.WindowStat) error) (lost int, err error) {
	replay, gap, sub, err := j.subscribe(from)
	if err != nil {
		return 0, err
	}
	lost = gap
	if sub != nil {
		defer func() {
			j.mu.Lock()
			delete(j.subs, sub)
			lost += sub.lost
			j.mu.Unlock()
		}()
	}
	if open != nil {
		if err := open(gap); err != nil {
			return lost, err
		}
	}
	for _, ws := range replay {
		if err := fn(ws); err != nil {
			return lost, err
		}
	}
	if sub == nil { // already terminal: the replay was everything
		return lost, nil
	}
	for {
		select {
		case ws, ok := <-sub.ch:
			if !ok { // the job reached a terminal state
				return lost, nil
			}
			if err := fn(ws); err != nil {
				return lost, err
			}
		case <-ctx.Done():
			return lost, ctx.Err()
		}
	}
}

// resultsSnapshot returns the buffered windows and the index of the first
// one still held (earlier windows were evicted from the bounded ring).
func (j *Job) resultsSnapshot() ([]core.WindowStat, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]core.WindowStat(nil), j.results...), j.firstKept
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.ctx.Done() }

// etaInput is the snapshot the DES projection needs, taken under the job
// mutex so the (comparatively slow) simulation runs outside it.
type etaInput struct {
	mean, variance float64
	n              int64
	statMean       float64
	statN          int64
	cuts           int
}

// Status snapshots the job, including the (cached) ETA projection.
func (j *Job) Status() Status { return j.status(true) }

// status snapshots the job; withETA false skips the DES projection, which
// bulk callers (the list endpoint) use to avoid paying it per job.
func (j *Job) status(withETA bool) Status {
	j.mu.Lock()
	if j.recStatus != nil {
		// A terminal job reloaded from the journal: serve the final
		// status it crashed (or shut down) with, marked as recovered.
		st := *j.recStatus
		st.Recovered = true
		if st.Tenant == "" {
			// Journaled by a pre-tenancy build: fall back to the tenant
			// recovered from the submit event.
			st.Tenant = j.tenant
		}
		if st.SpecDigest == "" {
			// Journaled by a pre-cache build: re-derived at recovery.
			st.SpecDigest = j.digest
		}
		st.CacheHit = false
		st.Attached = j.attached.Load()
		if st.TraceID == "" {
			st.TraceID = j.trace.ID()
		}
		j.mu.Unlock()
		return st
	}
	st := Status{
		Recovered:     j.recovered,
		ID:            j.id,
		State:         j.state,
		Spec:          j.spec,
		Tenant:        j.tenant,
		SpecDigest:    j.digest,
		TraceID:       j.trace.ID(),
		Subscribers:   len(j.subs),
		Attached:      j.attached.Load(),
		QueuePosition: int(j.queuePos.Load()),
		SubmittedAt:   j.submitted,
		Error:         j.errMsg,
		Progress: Progress{
			TasksDone:       j.tasksDone,
			Trajectories:    j.totalTasks,
			Samples:         j.samples,
			Cuts:            j.cuts,
			TotalCuts:       j.totalCuts,
			Windows:         j.windows,
			TotalWindows:    j.totalWins,
			Reactions:       j.reactions,
			DeadTasks:       j.deadTasks,
			QueueDepth:      j.in.depth(),
			DeferredQuanta:  j.deferred.Load(),
			StatsInFlight:   len(j.statSlots),
			SpilledBatches:  j.in.spilledCount(),
			RemoteTasksDone: j.remoteDone.Load(),
			RequeuedTasks:   j.requeued.Load(),
		},
	}
	if j.state.Terminal() {
		f := j.finished
		st.FinishedAt = &f
	}
	if j.winLat.N() > 0 {
		st.WindowLatency = &LatencySummary{
			N:      j.winLat.N(),
			MeanMS: j.winLat.Mean() * 1e3,
			P50MS:  j.winP50.Value() * 1e3,
			P95MS:  j.winP95.Value() * 1e3,
		}
	}
	in := etaInput{
		mean:     j.quantum.Mean(),
		variance: j.quantum.Var(),
		n:        j.quantum.N(),
		statMean: j.winLat.Mean(),
		statN:    j.winLat.N(),
		cuts:     j.cuts,
	}
	running := j.state == StateRunning
	// The DES projection costs up to tens of milliseconds; cache it
	// briefly, and stamp the cache before computing (single-flight) so
	// concurrent pollers hitting a stale entry reuse the old value
	// instead of all recomputing.
	var compute bool
	var cachedVal float64
	var cachedOK bool
	if running && withETA {
		if time.Since(j.etaAt) >= time.Second {
			compute = true
			j.etaAt = time.Now()
		}
		cachedVal, cachedOK = j.etaVal, j.etaOK
	}
	j.mu.Unlock()

	if running && withETA {
		if compute {
			eta, ok := j.estimateRemaining(in)
			j.mu.Lock()
			j.etaVal, j.etaOK = eta, ok
			j.mu.Unlock()
			cachedVal, cachedOK = eta, ok
		}
		if cachedOK {
			st.EtaSeconds = &cachedVal
		}
	}
	return st
}

// estimateRemaining projects the job's remaining wall-clock time by
// replaying its measured per-quantum service times (mean and lognormal
// dispersion) through the pipeline DES on a shared-memory deployment the
// width of the pool, then scaling the modelled makespan by the fraction of
// cuts still unanalysed.
//
// The projection assumes the job has the pool to itself, so with several
// jobs sharing the workers it is a lower bound — the measured per-quantum
// times capture service, not queueing behind other tenants.
func (j *Job) estimateRemaining(in etaInput) (float64, bool) {
	if in.n < 4 || in.mean <= 0 {
		return 0, false
	}
	quantaF := math.Ceil(j.cfg.End / j.cfg.Quantum)
	if quantaF < 1 {
		quantaF = 1
	}
	spqF := math.Round(j.cfg.Quantum / j.cfg.Period)
	if spqF < 1 {
		spqF = 1
	}
	// Bound the DES cost (it is re-run per status request): its event
	// count scales with trajectories×quanta (simulation events) and with
	// quanta×samples-per-quantum (cut releases). Compare in float64 so an
	// absurd spec ratio cannot overflow the check and sneak an unbounded
	// simulation into a status call.
	if float64(j.cfg.Trajectories)*quantaF > 50000 || quantaF*spqF > 100000 {
		return 0, false
	}
	quanta := int(quantaF)
	spq := int(spqF)
	var sigma float64
	if in.variance > 0 {
		sigma = math.Sqrt(math.Log(1 + in.variance/(in.mean*in.mean)))
	}
	wl := platform.Workload{
		Trajectories:      j.cfg.Trajectories,
		Quanta:            quanta,
		SamplesPerQuantum: spq,
		QuantumCost:       in.mean,
		QuantumSigma:      sigma,
		Seed:              j.cfg.BaseSeed,
	}
	if in.statN > 0 && j.cfg.WindowStep > 0 {
		wl.StatBase = in.statMean / float64(j.cfg.WindowStep)
	}
	makespan, err := platform.EstimateMakespan(runtime.NumCPU(), j.poolWorkers, 1, wl)
	if err != nil {
		return 0, false
	}
	remaining := 1.0
	if j.totalCuts > 0 {
		remaining = 1 - float64(in.cuts)/float64(j.totalCuts)
		if remaining < 0 {
			remaining = 0
		}
	}
	return makespan * remaining, true
}
