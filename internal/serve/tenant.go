package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/serve/sched"
)

// ErrQuotaExceeded is returned by Submit when the tenant's sample budget
// cannot cover the job — a retryable condition (HTTP 429): the budget
// frees as the tenant's admitted jobs finish.
var ErrQuotaExceeded = errors.New("serve: tenant sample budget exceeded")

// DefaultTenant is the tenant id anonymous submissions (no X-CWC-Tenant
// header) are accounted under.
const DefaultTenant = "default"

// TenantConfig is one tenant's admission quota and scheduling weight.
// Zero fields fall back to the server-wide defaults (Options.DefaultTenant*).
type TenantConfig struct {
	// MaxActive caps the tenant's concurrently running jobs. 0 means
	// unlimited: submissions never queue on this tenant's account (the
	// server-wide MaxJobs cap still applies).
	MaxActive int
	// MaxQueued caps the tenant's admission queue once MaxActive is
	// reached; beyond it submissions are rejected with ErrBusy (429).
	MaxQueued int
	// SampleBudget caps the total samples (trajectories × cuts, summed
	// over the tenant's running and queued jobs) the tenant may hold
	// admitted at once. 0 = unlimited. The budget frees as jobs finish.
	SampleBudget int64
	// Weight is the tenant's share under the wfq scheduler: a tenant with
	// weight 3 receives 3× the dispatch slots of a weight-1 tenant while
	// both are backlogged. 0 = the server default.
	Weight float64
}

// tenantState is one tenant's live accounting. All fields except quanta
// are guarded by the server mutex.
type tenantState struct {
	name string
	cfg  TenantConfig
	flow *sched.Flow[core.SimSlab] // wfq scheduler only, nil under fifo

	active     int    // running (admitted, non-terminal, non-queued) jobs
	queued     []*Job // admission queue: priority class desc, then submit order
	budgetUsed int64  // samples held by running + queued jobs
	quanta     atomic.Int64
}

// Job admission phases, tracked on Job.admission under the server mutex so
// slot/budget accounting releases exactly once however dispatch races the
// terminal transition.
const (
	admNone     = 0 // never admitted (or a recovered terminal shell)
	admQueued   = 1 // holds a queue entry and budget
	admActive   = 2 // holds an active slot and budget
	admReleased = 3 // accounting already released
)

// maxActive returns the tenant's effective concurrency cap (0 = unlimited).
func (s *Server) maxActive(t *tenantState) int {
	if t.cfg.MaxActive > 0 {
		return t.cfg.MaxActive
	}
	return s.opts.DefaultTenantConcurrency
}

// maxQueued returns the tenant's effective admission-queue cap.
func (s *Server) maxQueued(t *tenantState) int {
	if t.cfg.MaxQueued > 0 {
		return t.cfg.MaxQueued
	}
	return s.opts.DefaultTenantQueue
}

// sampleBudget returns the tenant's effective sample budget (0 = unlimited).
func (s *Server) sampleBudget(t *tenantState) int64 {
	if t.cfg.SampleBudget > 0 {
		return t.cfg.SampleBudget
	}
	return s.opts.DefaultTenantBudget
}

// tenantWeight returns the tenant's effective wfq weight.
func (s *Server) tenantWeight(t *tenantState) float64 {
	if t.cfg.Weight > 0 {
		return t.cfg.Weight
	}
	if s.opts.DefaultTenantWeight > 0 {
		return s.opts.DefaultTenantWeight
	}
	return 1
}

// validTenant reports whether a tenant id is well-formed: 1–64 characters
// of [A-Za-z0-9._-].
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantLocked returns (creating on first use) the tenant's state. Callers
// hold s.mu. Creation order doubles as the wfq tie-break order, which the
// server mutex makes deterministic per submission history.
func (s *Server) tenantLocked(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, cfg: s.opts.Tenants[name]}
	if s.wfq != nil {
		t.flow = s.wfq.NewFlow(name, s.tenantWeight(t))
	}
	s.tenants[name] = t
	s.tenantOrder = append(s.tenantOrder, name)
	return t
}

// runningLocked counts admitted non-terminal jobs that are not waiting in
// an admission queue — the population the global MaxJobs cap bounds.
func (s *Server) runningLocked() int {
	n := 0
	for _, j := range s.jobs {
		if st := j.State(); st != StateQueued && !st.Terminal() {
			n++
		}
	}
	return n
}

// admitLocked decides one submission's fate without mutating anything:
// run now (queue=false), wait in the tenant's admission queue
// (queue=true), or reject (err). Callers hold s.mu.
//
// The rules: a submission the tenant's sample budget cannot cover is
// rejected (429, ErrQuotaExceeded). A tenant under its concurrency cap
// runs immediately if the server-wide MaxJobs cap has room, and is
// rejected with ErrBusy otherwise (the pre-tenancy behaviour). A tenant
// at its cap queues — the 202-with-position path — until the queue cap
// rejects further submissions with ErrBusy.
func (s *Server) admitLocked(t *tenantState, sampleCost int64) (queue bool, err error) {
	if s.closed {
		return false, ErrClosed
	}
	if s.draining.Load() {
		return false, ErrDraining
	}
	if budget := s.sampleBudget(t); budget > 0 && t.budgetUsed+sampleCost > budget {
		return false, fmt.Errorf("serve: tenant %q holds %d of %d budgeted samples, job needs %d: %w",
			t.name, t.budgetUsed, budget, sampleCost, ErrQuotaExceeded)
	}
	if limit := s.maxActive(t); limit > 0 && t.active >= limit {
		if qcap := s.maxQueued(t); len(t.queued) >= qcap {
			return false, fmt.Errorf("serve: tenant %q has %d jobs running and %d queued, queue limit is %d: %w",
				t.name, t.active, len(t.queued), qcap, ErrBusy)
		}
		return true, nil
	}
	if running := s.runningLocked(); running >= s.opts.MaxJobs {
		return false, fmt.Errorf("serve: %d active jobs, limit is %d: %w", running, s.opts.MaxJobs, errSaturated)
	}
	return false, nil
}

// enqueueLocked inserts a job into its tenant's admission queue ordered by
// priority class (desc) then submission order (stable append), charges the
// tenant's accounting and renumbers positions. Callers hold s.mu.
func (s *Server) enqueueLocked(t *tenantState, job *Job) {
	idx := sort.Search(len(t.queued), func(i int) bool {
		return t.queued[i].spec.Priority < job.spec.Priority
	})
	t.queued = append(t.queued, nil)
	copy(t.queued[idx+1:], t.queued[idx:])
	t.queued[idx] = job
	t.budgetUsed += job.sampleCost
	job.admission = admQueued
	job.enqueuedAt = time.Now()
	renumberQueue(t)
}

// renumberQueue refreshes every queued job's 1-based position snapshot.
func renumberQueue(t *tenantState) {
	for i, j := range t.queued {
		j.queuePos.Store(int32(i + 1))
	}
}

// removeQueuedLocked drops a job from its tenant's queue, if present.
func removeQueuedLocked(t *tenantState, job *Job) bool {
	for i, j := range t.queued {
		if j == job {
			t.queued = append(t.queued[:i], t.queued[i+1:]...)
			job.queuePos.Store(0)
			renumberQueue(t)
			return true
		}
	}
	return false
}

// jobFinished is every job's onTerminal callback: it releases the job's
// tenant slot and sample budget exactly once and dispatches queued jobs
// into the freed capacity. Runs with no locks held (end of setTerminal).
func (s *Server) jobFinished(job *Job) {
	s.mu.Lock()
	t := s.tenants[job.tenant]
	switch job.admission {
	case admQueued:
		if t != nil {
			removeQueuedLocked(t, job)
			t.budgetUsed -= job.sampleCost
		}
	case admActive:
		if t != nil {
			t.active--
			t.budgetUsed -= job.sampleCost
		}
	}
	job.admission = admReleased
	if key := cacheKey(job.tenant, job.digest); key != "" {
		if s.inflightDigest[key] == job {
			// The job is no longer an attach target; future matching
			// submissions hit the cache (done) or run fresh
			// (failed/cancelled).
			delete(s.inflightDigest, key)
		}
		if s.cache != nil && job.State() == StateDone {
			// Only successful runs are cacheable: a failed or cancelled
			// job has no complete result to answer with.
			s.cache.Put(key, job.id)
		}
	}
	starts := s.dispatchLocked()
	s.mu.Unlock()
	if s.leases != nil && !job.noPersist.Load() {
		// The released (not deleted) lease file keeps pointing readers at
		// the journal holding the job's terminal record. A job failed for
		// a lost lease skips this: the thief owns the lease now.
		s.leases.Release(job.id)
		s.announcePeer() // owned-job count dropped; refresh the load view
	}
	for _, start := range starts {
		start()
	}
}

// dispatchLocked promotes queued jobs into freed capacity: tenants are
// visited in creation order, each dispatching its queue head while it has
// a concurrency slot and the global MaxJobs cap has room. It returns the
// promoted jobs' launch closures for the caller to run outside the lock.
// Callers hold s.mu.
func (s *Server) dispatchLocked() []func() {
	// A draining replica must not promote queued jobs into freed slots:
	// everything it still holds is being handed off, queued jobs
	// included.
	if s.closed || s.draining.Load() {
		return nil
	}
	var starts []func()
	running := s.runningLocked()
	for _, name := range s.tenantOrder {
		t := s.tenants[name]
		limit := s.maxActive(t)
		for len(t.queued) > 0 && (limit == 0 || t.active < limit) && running < s.opts.MaxJobs {
			job := t.queued[0]
			t.queued = t.queued[1:]
			job.queuePos.Store(0)
			if job.State().Terminal() {
				// Cancelled while queued, its jobFinished still pending:
				// release here; jobFinished will see admReleased and no-op.
				job.admission = admReleased
				t.budgetUsed -= job.sampleCost
				continue
			}
			job.admission = admActive
			t.active++
			running++
			if !job.enqueuedAt.IsZero() {
				now := time.Now()
				s.m.admissionWait.Observe(now.Sub(job.enqueuedAt))
				job.trace.Span("queued", job.origin, "", job.enqueuedAt, now)
			}
			job.mu.Lock()
			if job.state == StateQueued {
				job.state = StateRunning
			}
			job.mu.Unlock()
			starts = append(starts, job.startFn)
		}
		renumberQueue(t)
	}
	return starts
}

// TenantStatus is the wire format of one tenant's control-plane snapshot
// (GET /tenants).
type TenantStatus struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Active int     `json:"active"`
	Queued int     `json:"queued"`
	// MaxActive/MaxQueued/SampleBudget are the effective limits (0 =
	// unlimited concurrency / unlimited budget).
	MaxActive    int   `json:"max_active,omitempty"`
	MaxQueued    int   `json:"max_queued,omitempty"`
	SampleBudget int64 `json:"sample_budget,omitempty"`
	BudgetUsed   int64 `json:"budget_used"`
	// Quanta counts simulation quanta the local pool dispatched for this
	// tenant — the fairness observable TestWFQSharesConverge pins.
	Quanta int64 `json:"quanta"`
}

// Tenants snapshots every tenant seen so far, in first-submission order.
func (s *Server) Tenants() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.tenantOrder))
	for _, name := range s.tenantOrder {
		t := s.tenants[name]
		out = append(out, TenantStatus{
			Name:         name,
			Weight:       s.tenantWeight(t),
			Active:       t.active,
			Queued:       len(t.queued),
			MaxActive:    s.maxActive(t),
			MaxQueued:    s.maxQueued(t),
			SampleBudget: s.sampleBudget(t),
			BudgetUsed:   t.budgetUsed,
			Quanta:       t.quanta.Load(),
		})
	}
	return out
}
