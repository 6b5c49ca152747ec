package serve

// Replicated serve tier: N servers share one -data-dir. Each replica
// appends to its own journal (DataDir/replicas/<id>/journal.wal) and
// drives only the jobs whose lease (DataDir/leases/<job>.lease) it
// holds. Everything here is the glue between the lease protocol
// (internal/lease), the journal (internal/store) and the job registry:
//
//   - renewLoop keeps held leases alive at TTL/3 and fails a job the
//     moment its lease is lost to a thief (the zombie side of fencing —
//     the store fence has already stopped its appends by epoch or
//     expiry, this surfaces the loss as a job outcome).
//   - failoverLoop scans for expired/released foreign leases, steals
//     them at a higher epoch, adopts the previous owner's journaled
//     state into our journal and resumes the job through the ordinary
//     recovery path — deterministic replay + the resume filter make the
//     takeover's window stream bit-identical to an uninterrupted run.
//   - peekJob/handleForeign serve reads for jobs other replicas own by
//     replaying the owner's journal read-only, redirect streams to the
//     owner's advertised URL (307), and transparently proxy cancels.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cwcflow/internal/lease"
	"cwcflow/internal/store"
)

// scanJitter spreads a nominal scan interval uniformly over [d/2, 3d/2]
// — the same discipline as dff.DialRetry's backoff jitter: N replicas
// started by the same supervisor must not scan the lease directory (or
// fire rebalance requests) in lockstep forever.
func scanJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)+1))
}

// renewLoop extends every held lease at TTL/3 cadence. A renewal that
// returns ErrLost means another replica stole the job: the local job is
// failed without journaling (its journal entries are already fenced;
// the thief's journal is authoritative from the higher epoch on).
func (s *Server) renewLoop() {
	defer s.replicaWG.Done()
	t := time.NewTicker(s.leases.TTL() / 3)
	defer t.Stop()
	for {
		select {
		case <-s.replicaStop:
			return
		case <-t.C:
		}
		// The renew tick doubles as the peer-directory heartbeat: load
		// changes propagate to the tier within TTL/3 of happening.
		s.announcePeer()
		for _, id := range s.leases.HeldJobs() {
			_, err := s.leases.Renew(id)
			if !errors.Is(err, lease.ErrLost) {
				continue
			}
			thief := "another replica"
			if l, ok, _ := s.leases.Get(id); ok {
				thief = fmt.Sprintf("replica %s at epoch %d", l.Owner, l.Epoch)
			}
			if job, ok := s.Get(id); ok {
				job.noPersist.Store(true)
				job.fail(fmt.Errorf("job lease lost: stolen by %s", thief))
			}
		}
	}
}

// failoverLoop periodically looks for jobs whose lease has expired (the
// owner crashed or partitioned away) or was released mid-run (drain,
// handoff, graceful shutdown) and takes them over. The scan interval is
// jittered so a tier of replicas spreads its directory reads.
func (s *Server) failoverLoop() {
	defer s.replicaWG.Done()
	t := time.NewTimer(scanJitter(s.opts.FailoverScan))
	defer t.Stop()
	for {
		select {
		case <-s.replicaStop:
			return
		case <-t.C:
		}
		t.Reset(scanJitter(s.opts.FailoverScan))
		if s.draining.Load() {
			continue // a draining replica sheds jobs, it never adopts
		}
		ls, err := s.leases.List()
		if err != nil {
			continue
		}
		for _, l := range ls {
			if !s.leases.Stealable(l) {
				continue
			}
			s.takeover(l)
		}
	}
}

// takeover steals one orphaned lease and resumes its job here. The
// sequence is: peek (is there a non-terminal job worth stealing?),
// acquire (the higher-epoch steal; losing the race to another thief is
// fine), re-peek (the freshest frontier now that the fence guarantees
// the old owner appends nothing more), adopt (snapshot the record into
// our journal, fsynced), resume (the ordinary recovery path).
func (s *Server) takeover(l lease.Lease) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed || s.draining.Load() {
		return
	}
	s.takeoverMu.Lock()
	defer s.takeoverMu.Unlock()
	if _, ours := s.leases.Held(l.Job); ours {
		// l was read before another takeover of ours won the job; Acquire
		// would re-acquire our own lease and resume the job a second time.
		return
	}
	rec, ok := s.peekRecord(l.Job)
	if !ok || rec.Terminal != "" {
		// Nothing to drive: terminal jobs are served by peeking the
		// owner's journal, and a lease with no journaled record yet
		// cannot be resumed (the submit fsync precedes the client ack,
		// so this is a thief that died between acquire and adopt).
		return
	}
	if _, err := s.leases.AcquireDigest(l.Job, cacheKey(recoveredTenant(rec), specDigestRaw(rec.Spec))); err != nil {
		return // raced another thief, or the owner came back
	}
	s.m.leaseTakeovers.Inc()
	if fresh, ok := s.peekRecord(l.Job); ok {
		rec = fresh
	}
	// A handoff pointer's frontier is authoritative: the old owner
	// fsynced its journal before releasing, so peeking fewer windows
	// means our directory read raced the release — re-read briefly
	// rather than resume behind the durable frontier.
	if h := l.Handoff; h != nil {
		s.m.handoffsIn.Inc()
		for i := 0; i < 40 && rec.WindowCount < h.Windows; i++ {
			time.Sleep(5 * time.Millisecond)
			if fresh, ok := s.peekRecord(l.Job); ok {
				rec = fresh
			}
		}
	}
	if err := s.store.Adopt(rec); err != nil {
		s.leases.Release(l.Job)
		return
	}
	// The store now appends to rec: from here on read only a snapshot.
	rec, ok = s.store.Snapshot(l.Job)
	if !ok {
		s.leases.Release(l.Job)
		return
	}
	if rec.Terminal != "" {
		// Finished between the first peek and the steal: keep the
		// adopted result (it now survives the old owner's directory) and
		// let the lease go.
		s.restoreTerminal(rec)
		s.leases.Release(l.Job)
		return
	}
	if err := s.resumeJob(rec); err != nil {
		job := failedRecovery(rec, err)
		s.registerRecovered(job)
		_ = s.store.AppendTerminal(job.id, string(StateFailed), job.errMsg, nil)
		s.leases.Release(l.Job)
	}
	// Load changed: tell the tier now instead of waiting for the next
	// renew-tick heartbeat (the rebalancer and submit forwarder read it).
	s.announcePeer()
}

// peekRecord finds the freshest journaled record of a job across every
// replica journal under the shared data dir: any terminal record wins
// (it is final), otherwise the highest durable window frontier. Reading
// a live journal is safe — replay is convergent and stops at a torn
// tail, costing at most the event being written.
func (s *Server) peekRecord(id string) (*store.JobRecord, bool) {
	root := filepath.Join(s.opts.DataDir, "replicas")
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, false
	}
	var best *store.JobRecord
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		recs, err := store.ReadJournal(filepath.Join(root, e.Name()), store.Options{RetainWindows: s.opts.ResultBuffer})
		if err != nil {
			continue
		}
		for _, rec := range recs {
			if rec.ID != id {
				continue
			}
			switch {
			case best == nil:
				best = rec
			case rec.Terminal != "" && best.Terminal == "":
				best = rec
			case rec.Terminal == best.Terminal && rec.WindowCount > best.WindowCount:
				best = rec
			}
		}
	}
	return best, best != nil
}

// foreignLease resolves a job id this replica has no local Job for to
// its lease, when the replicated tier is active.
func (s *Server) foreignLease(id string) (lease.Lease, bool) {
	if s.leases == nil {
		return lease.Lease{}, false
	}
	l, ok, err := s.leases.Get(id)
	if err != nil || !ok {
		return lease.Lease{}, false
	}
	return l, true
}

// foreignStatus synthesizes a Status for a job from its journaled
// record (the read path of a non-owning replica). Terminal records
// carry the owner's final status snapshot verbatim; in-flight ones are
// reduced to the durable facts (state, spec, window frontier).
func foreignStatus(rec *store.JobRecord, l lease.Lease) Status {
	st := Status{
		ID:          rec.ID,
		State:       StateRunning,
		Tenant:      rec.Tenant,
		SubmittedAt: rec.SubmittedAt,
		Owner:       l.Owner,
	}
	if rec.Terminal != "" {
		if len(rec.Status) > 0 && json.Unmarshal(rec.Status, &st) == nil {
			st.Owner = l.Owner
			return st
		}
		st.State = State(rec.Terminal)
		st.Error = rec.Error
	}
	_ = json.Unmarshal(rec.Spec, &st.Spec)
	st.Progress.Windows = rec.WindowCount
	return st
}

// handleForeign answers an HTTP request for a job this replica does not
// drive, using the lease directory: reads (status, result) are served
// from the owner's journal, streams are redirected to the owner's
// advertised URL, and cancels are proxied to it transparently. Returns
// false when the job has no lease either — a genuine 404.
func (s *Server) handleForeign(w http.ResponseWriter, r *http.Request, id, action string) bool {
	l, ok := s.foreignLease(id)
	if !ok {
		return false
	}
	switch action {
	case "status", "result":
		rec, ok := s.peekRecord(id)
		if !ok {
			writeError(w, http.StatusNotFound, "job %q is leased to replica %s but not journaled yet", id, l.Owner)
			return true
		}
		if action == "status" {
			writeJSON(w, http.StatusOK, foreignStatus(rec, l))
			return true
		}
		writeJSON(w, http.StatusOK, resultResponse{
			Status:      foreignStatus(rec, l),
			FirstWindow: rec.FirstRetained,
			Windows:     rec.Windows,
		})
		return true
	case "stream", "trace":
		// Live streams need the owner's subscriber machinery and a trace
		// lives in the owner's memory — peeking a journal can serve
		// neither. 307 preserves the method and
		// lets any client re-issue the request against the owner — but
		// only a live owner: bouncing a client at a dead socket strands
		// it until its own timeout, when a short 503+Retry-After has the
		// failover loop adopt the job before the retry lands.
		if l.URL == "" {
			writeError(w, http.StatusServiceUnavailable, "job %q is owned by replica %s, which advertises no URL", id, l.Owner)
			return true
		}
		if !s.ownerAlive(l) {
			w.Header().Set("Retry-After", s.retryAfter())
			writeError(w, http.StatusServiceUnavailable, "job %q has no live owner (last owner %s); a peer adopts it shortly, retry", id, l.Owner)
			return true
		}
		w.Header().Set("Location", l.URL+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
		return true
	case "cancel":
		if l.URL != "" && !s.ownerAlive(l) {
			w.Header().Set("Retry-After", s.retryAfter())
			writeError(w, http.StatusServiceUnavailable, "job %q has no live owner to cancel through (last owner %s); a peer adopts it shortly, retry", id, l.Owner)
			return true
		}
		s.proxyCancel(w, r, id, l)
		return true
	}
	return false
}

// retryAfter is the Retry-After value for reads that hit an ownerless
// job: one lease TTL bounds how long failover can take to adopt it.
func (s *Server) retryAfter() string {
	secs := int(math.Ceil(s.opts.LeaseTTL.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// ownerAlive reports whether the replica owning lease l is worth
// bouncing a client to: a released lease has no driver at all (adoption
// is imminent), a fresh heartbeat in the peer directory proves liveness
// cheaply, and otherwise an HTTP probe of the owner's healthz decides —
// any answer, even an unhealthy one, means the socket can serve.
func (s *Server) ownerAlive(l lease.Lease) bool {
	if l.Released {
		return false
	}
	if s.peers != nil {
		if infos, err := s.peers.List(s.opts.LeaseTTL); err == nil {
			for _, p := range infos {
				if p.ID == l.Owner {
					return true
				}
			}
		}
	}
	if l.URL == "" {
		return false
	}
	return s.probeOwner(l.URL)
}

// ownerProbe caches one probeOwner verdict briefly.
type ownerProbe struct {
	at    time.Time
	alive bool
}

func (s *Server) probeOwner(url string) bool {
	s.probeMu.Lock()
	if p, ok := s.probes[url]; ok && time.Since(p.at) < time.Second {
		s.probeMu.Unlock()
		return p.alive
	}
	s.probeMu.Unlock()
	alive := false
	if resp, err := probeClient.Get(url + "/healthz"); err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		alive = true
	}
	s.probeMu.Lock()
	if s.probes == nil {
		s.probes = make(map[string]ownerProbe)
	}
	s.probes[url] = ownerProbe{at: time.Now(), alive: alive}
	s.probeMu.Unlock()
	return alive
}

// probeClient performs owner-liveness probes: a dead socket must be
// diagnosed quickly, so the timeout is far shorter than proxyClient's.
var probeClient = &http.Client{Timeout: time.Second}

// proxyCancel forwards POST /jobs/{id}/cancel (and DELETE /jobs/{id})
// to the owning replica and relays its response, so a client may cancel
// through any replica without following redirects.
func (s *Server) proxyCancel(w http.ResponseWriter, r *http.Request, id string, l lease.Lease) {
	if l.URL == "" {
		writeError(w, http.StatusServiceUnavailable, "job %q is owned by replica %s, which advertises no URL", id, l.Owner)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, l.URL+"/jobs/"+id+"/cancel", nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "building proxy request: %v", err)
		return
	}
	resp, err := proxyClient.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, "proxying cancel to replica %s: %v", l.Owner, err)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// proxyClient is the replica-to-replica HTTP client: short timeout, no
// redirect following (the target is the final authority).
var proxyClient = &http.Client{Timeout: 10 * time.Second}
