package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/store"
)

// recover replays the durable store into the registry at boot: terminal
// jobs reappear with their journaled results and final status, in-flight
// jobs are rebuilt and resumed. Recovery failures (a model that no
// longer resolves, an invalid spec after a version change) land the job
// in StateFailed with the reason, never abort the boot.
func (s *Server) recover() {
	for _, rec := range s.store.Recovered() {
		s.bumpSeq(rec.ID)
		if rec.Terminal != "" {
			s.restoreTerminal(rec)
			continue
		}
		if s.leases != nil {
			// Replicated tier: resume only jobs whose lease we can claim.
			// A live foreign lease means another replica already took the
			// job over while we were down — drop our stale copy (the
			// failover loop will steal it back if that owner dies too).
			if _, err := s.leases.AcquireDigest(rec.ID, cacheKey(recoveredTenant(rec), specDigestRaw(rec.Spec))); err != nil {
				s.store.Forget(rec.ID)
				continue
			}
		}
		// The resumed job journals into the store's record while its tasks
		// are still being built from it: resume from a copy.
		if snap, ok := s.store.Snapshot(rec.ID); ok {
			rec = snap
		}
		if err := s.resumeJob(rec); err != nil {
			// The failure is a real outcome: journal it so the next
			// restart does not retry a job that cannot be rebuilt.
			job := failedRecovery(rec, err)
			s.registerRecovered(job)
			var statusJSON json.RawMessage
			st := job.status(false)
			if b, merr := json.Marshal(&st); merr == nil {
				statusJSON = b
			}
			_ = s.store.AppendTerminal(job.id, string(StateFailed), job.errMsg, statusJSON)
			if s.leases != nil {
				s.leases.Release(job.id)
			}
		}
	}
}

// bumpSeq advances the job-id sequence past a recovered id, so new
// submissions never collide with recovered jobs. Sequence numbers are
// per replica: ids adopted from other replicas carry a different
// replica infix and leave our counter alone.
func (s *Server) bumpSeq(id string) {
	rest := strings.TrimPrefix(id, "job-")
	if rid := s.opts.ReplicaID; rid != "" {
		if !strings.HasPrefix(rest, rid+"-") {
			return
		}
		rest = strings.TrimPrefix(rest, rid+"-")
	}
	if n, err := strconv.Atoi(rest); err == nil && n > s.seq {
		s.seq = n
	}
}

// registerRecovered adds a rebuilt job to the registry (boot only — no
// admission control: recovered jobs were admitted by a previous life).
func (s *Server) registerRecovered(job *Job) {
	s.mu.Lock()
	if _, ok := s.jobs[job.id]; !ok {
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
	}
	s.mu.Unlock()
}

// terminalJob builds the minimal Job shell for a job that is already
// finished: state, results and the journaled final status, with a
// pre-cancelled context so Done() reports closed.
func terminalJob(rec *store.JobRecord, state State, errMsg string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &Job{
		id:        rec.ID,
		tenant:    recoveredTenant(rec),
		ctx:       ctx,
		cancel:    cancel,
		in:        newIngress(1, 2, nil), // inert; status() reads its depth
		state:     state,
		errMsg:    errMsg,
		submitted: rec.SubmittedAt,
		finished:  time.Now(),
		recovered: true,
		results:   append([]core.WindowStat(nil), rec.Windows...),
		firstKept: rec.FirstRetained,
		windows:   rec.WindowCount,
	}
	_ = json.Unmarshal(rec.Spec, &j.spec)
	if j.spec.Model != "" {
		// Re-derive the content address so the cache index (memory-only)
		// can be rebuilt from replay — including from pre-cache journals.
		j.digest = SpecDigest(j.spec)
	}
	return j
}

// recoveredTenant maps a journaled tenant id to the live one: journals
// written before multi-tenancy carry none, which is the default tenant.
func recoveredTenant(rec *store.JobRecord) string {
	if rec.Tenant != "" {
		return rec.Tenant
	}
	return DefaultTenant
}

// restoreTerminal re-registers a finished job from the journal: its
// buffered windows serve GET /jobs/{id}/result, its journaled final
// status serves GET /jobs/{id}.
func (s *Server) restoreTerminal(rec *store.JobRecord) {
	job := terminalJob(rec, State(rec.Terminal), rec.Error)
	if len(rec.Status) > 0 {
		var st Status
		if err := json.Unmarshal(rec.Status, &st); err == nil {
			job.recStatus = &st
		}
	}
	s.registerRecovered(job)
	if s.cache != nil && job.digest != "" && State(rec.Terminal) == StateDone {
		// Rebuild the cache index from replay: a repeat submission of this
		// spec answers from the recovered shell without simulating.
		s.cache.Put(cacheKey(job.tenant, job.digest), job.id)
	}
}

// failedRecovery builds the terminal shell for an in-flight job that
// could not be resumed, preserving whatever windows were journaled.
func failedRecovery(rec *store.JobRecord, err error) *Job {
	return terminalJob(rec, StateFailed, fmt.Sprintf("recovery failed: %v", err))
}

// resumeJob rebuilds an in-flight job from the journal and resumes it
// under its slab scheduler, on the local pool and any live workers alike:
// the published-window frontier defines the resume cut, every trajectory
// restarts from its newest checkpoint at or below that cut (or from its
// seed), the scheduler's filter drops what it re-simulates below the cut,
// and the window stream continues the crashed run's sequence
// bit-identically. rec must be a store.Snapshot: it is read after the job
// has started journaling.
func (s *Server) resumeJob(rec *store.JobRecord) error {
	var spec JobSpec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		return fmt.Errorf("decoding journaled spec: %w", err)
	}
	cfg, species, cuts, err := s.runConfig(spec)
	if err != nil {
		return err
	}
	job := s.newJob(rec.ID, spec, cfg, species, cuts)
	job.digest = SpecDigest(spec)
	job.tenant = recoveredTenant(rec)
	job.initResume(rec)
	// Once per job and, as in Submit, before s.mu: a first sighting of the
	// tenant registers a series under the metrics registry's lock.
	job.obsTenantQuanta = s.m.tenantQuanta.With(job.tenant)

	// Recovered jobs re-enter admission so the tenant's concurrency cap
	// holds across restarts: journal order is submission order, so a job
	// that was queued at the crash recovers the same queue position.
	// Budget is charged but never re-checked — the job was admitted by a
	// previous life of this server.
	s.mu.Lock()
	t := s.tenantLocked(job.tenant)
	job.flow = t.flow
	job.tenantQuanta = &t.quanta
	limit := s.maxActive(t)
	runNow := (limit == 0 || t.active < limit) && s.runningLocked() < s.opts.MaxJobs
	if runNow {
		job.admission = admActive
		t.active++
		t.budgetUsed += job.sampleCost
	} else {
		job.mu.Lock()
		job.state = StateQueued
		job.mu.Unlock()
		s.enqueueLocked(t, job)
	}
	if _, ok := s.jobs[job.id]; !ok {
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
	}
	if s.inflightDigest != nil && job.digest != "" {
		if key := cacheKey(job.tenant, job.digest); s.inflightDigest[key] == nil {
			s.inflightDigest[key] = job
		}
	}
	s.mu.Unlock()
	if runNow {
		job.startFn()
	}
	return nil
}
