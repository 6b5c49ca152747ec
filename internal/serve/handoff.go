package serve

// Voluntary ownership transfer for the replicated serve tier. Failover
// (replica.go) handles owners that die; everything here handles owners
// that leave on purpose:
//
//   - Drain (SIGTERM, POST /drain) stops admission, checkpoints every
//     owned job at its current frontier, fsyncs the journal, releases
//     each lease with a handoff pointer and nudges the least-loaded
//     live peers to adopt immediately — membership changes cost one
//     adoption, never a TTL wait.
//   - rebalanceLoop is the anti-entropy half: an underloaded replica
//     asks the most loaded live peer to hand over one specific job
//     (POST /leases/{job}/handoff); the owner checkpoints at the next
//     quantum boundary and releases with a pointer reserved for the
//     requester, which adopts at epoch+1. Hysteresis (RebalanceMargin,
//     one job per jittered tick) makes the tier converge instead of
//     thrash.
//   - forwardTarget backs load-aware admission: a draining or saturated
//     replica 307-redirects POST /jobs to the least-loaded live peer.
//
// The peer directory (internal/lease.PeerDirectory) is the advisory
// load view all three consult; ownership is still arbitrated only by
// the lease files, so a stale heartbeat can misdirect a request but
// never lose or double-own a job.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"cwcflow/internal/chaos"
	"cwcflow/internal/lease"
)

// DrainedJob is one job Drain handed off: its durable window frontier
// at release and the peer nudged to adopt it (empty when no live peer
// was available — the next failover scan picks the job up instead).
type DrainedJob struct {
	Job     string `json:"job"`
	Windows int    `json:"windows"`
	Peer    string `json:"peer,omitempty"`
}

// DrainReport is the POST /drain response body.
type DrainReport struct {
	Draining bool         `json:"draining"`
	Jobs     []DrainedJob `json:"jobs,omitempty"`
}

// Drain makes this replica give up its work voluntarily: admission
// stops (further submissions are redirected to peers), every owned
// running job is checkpointed at its current frontier and stopped
// without a journaled outcome, the journal is fsynced, and each lease
// is released with a handoff pointer so a peer adopts immediately
// instead of waiting out the TTL. Reads keep working throughout.
// Idempotent and safe to call concurrently; Close drains first, and
// POST /drain drains without exiting.
func (s *Server) Drain() DrainReport {
	s.draining.Store(true)
	rep := DrainReport{Draining: true}
	if s.leases == nil {
		return rep
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.announcePeer() // the tier stops routing submissions here
	// A submission that passed admission just before the flag flipped
	// can still acquire a lease after the first pass, so sweep until a
	// pass finds nothing held (bounded: admission is closed, so the
	// population only shrinks).
	for pass := 0; pass < 3; pass++ {
		held := s.leases.HeldJobs()
		if len(held) == 0 {
			break
		}
		sort.Strings(held)
		var stopping []*Job
		for _, id := range held {
			if job, ok := s.Get(id); ok && !job.State().Terminal() {
				stopping = append(stopping, job)
			}
		}
		s.stopForHandoff(stopping, "replica draining: job handed off")
		for _, id := range held {
			win := 0
			if job, ok := s.Get(id); ok {
				win = job.durableWindows()
			}
			s.leases.ReleaseHandoff(id, lease.Handoff{Windows: win})
			s.m.handoffsOut.Inc()
			s.deregister(id)
			rep.Jobs = append(rep.Jobs, DrainedJob{Job: id, Windows: win})
		}
	}
	s.nudgePeers(rep.Jobs)
	return rep
}

// stopForHandoff checkpoints and stops locally driven jobs without
// journaling a terminal state (a handoff is not a job outcome — the
// adopter resumes them as running). The drain grace gives every
// in-flight quantum one boundary to checkpoint at; the fsync afterwards
// makes the whole frontier durable before any lease advertises it.
func (s *Server) stopForHandoff(jobs []*Job, reason string) {
	if len(jobs) == 0 {
		return
	}
	for _, j := range jobs {
		j.drainCkpt.Store(true)
	}
	if s.opts.DrainGrace > 0 {
		time.Sleep(s.opts.DrainGrace)
	}
	for _, j := range jobs {
		j.noPersist.Store(true)
		j.setTerminal(StateFailed, reason)
	}
	if s.store != nil {
		_ = s.store.Sync()
	}
}

// deregister removes a handed-off job's local shell from the registry —
// WITHOUT store.Forget: until a peer adopts, this replica's journal is
// the only copy of the job's history, and reads for the job must fall
// through to the foreign (journal-peek) path, not hit a shell that says
// "failed".
func (s *Server) deregister(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// handoffJob is the owner's half of one rebalance transfer: checkpoint
// the job at the next quantum boundary, stop it without a journaled
// outcome, fsync, and release its lease with a pointer reserved for the
// requester (empty to = any peer). Refuses jobs this replica does not
// hold or that are already terminal.
func (s *Server) handoffJob(id, to string) (lease.Handoff, error) {
	if _, held := s.leases.Held(id); !held {
		return lease.Handoff{}, fmt.Errorf("job %q is not held by replica %s", id, s.opts.ReplicaID)
	}
	job, ok := s.Get(id)
	if !ok {
		return lease.Handoff{}, fmt.Errorf("job %q has no local shell on replica %s", id, s.opts.ReplicaID)
	}
	if job.State().Terminal() {
		return lease.Handoff{}, fmt.Errorf("job %q is already terminal", id)
	}
	target := to
	if target == "" {
		target = "any peer"
	}
	s.stopForHandoff([]*Job{job}, fmt.Sprintf("job handed off to %s", target))
	h := lease.Handoff{To: to, Windows: job.durableWindows()}
	s.leases.ReleaseHandoff(id, h)
	s.m.handoffsOut.Inc()
	s.deregister(id)
	s.announcePeer()
	return h, nil
}

// announcePeer publishes this replica's heartbeat (owned-job count,
// draining flag) to the shared peer directory. Best effort: the
// directory is advisory, so a failed write only delays the tier's view.
func (s *Server) announcePeer() {
	if s.peers == nil {
		return
	}
	_ = s.peers.Announce(lease.PeerInfo{
		URL:      s.opts.AdvertiseURL,
		Jobs:     len(s.leases.HeldJobs()),
		Draining: s.draining.Load(),
	})
}

// livePeers returns the fresh, non-draining peers (excluding this
// replica) that advertise a URL — the candidates for submit forwarding,
// adopt nudges and rebalance requests. Freshness is one lease TTL,
// about three missed renew-tick heartbeats.
func (s *Server) livePeers() []lease.PeerInfo {
	if s.peers == nil {
		return nil
	}
	infos, err := s.peers.List(s.opts.LeaseTTL)
	if err != nil {
		return nil
	}
	out := infos[:0]
	for _, p := range infos {
		if p.ID == s.opts.ReplicaID || p.Draining || p.URL == "" {
			continue
		}
		out = append(out, p)
	}
	return out
}

// forwardTarget picks the least-loaded live peer owning fewer than
// lessThan jobs to redirect a submission to; empty means no candidate
// and the caller falls back to its plain 429/503 answer. A saturated
// replica passes its own load so the redirect strictly improves —
// mutually saturated replicas cannot bounce a client in a cycle; a
// draining replica passes MaxInt (it cannot take the job at all).
func (s *Server) forwardTarget(lessThan int) string {
	var best *lease.PeerInfo
	peers := s.livePeers()
	for i := range peers {
		if peers[i].Jobs >= lessThan {
			continue
		}
		if best == nil || peers[i].Jobs < best.Jobs {
			best = &peers[i]
		}
	}
	if best == nil {
		return ""
	}
	return best.URL
}

// nudgePeers asks live peers to adopt the just-released jobs right now
// (POST /leases/{job}/adopt), spreading them across the tier least
// loaded first, so handoff latency is one HTTP round-trip rather than
// the peers' scan cadence. Best effort — without a nudge the released
// leases are still picked up by the next failover scan.
func (s *Server) nudgePeers(jobs []DrainedJob) {
	if len(jobs) == 0 {
		return
	}
	peers := s.livePeers()
	if len(peers) == 0 {
		return
	}
	for i := range jobs {
		// Least-loaded first, counting the jobs this nudge pass already
		// assigned, so a batch of handoffs spreads instead of piling
		// onto one peer.
		best := 0
		for p := range peers {
			if peers[p].Jobs < peers[best].Jobs {
				best = p
			}
		}
		resp, err := proxyClient.Post(peers[best].URL+"/leases/"+jobs[i].Job+"/adopt", "application/json", nil)
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			jobs[i].Peer = peers[best].ID
			peers[best].Jobs++
		}
	}
}

// rebalanceLoop is the tier's anti-entropy load balancer: at a low,
// jittered cadence, a replica that owns RebalanceMargin fewer jobs than
// the most loaded live peer asks that peer to hand one job over, then
// adopts it at epoch+1. One job per tick plus the margin is the
// hysteresis that makes the tier converge monotonically instead of
// oscillating jobs between replicas.
func (s *Server) rebalanceLoop() {
	defer s.replicaWG.Done()
	t := time.NewTimer(scanJitter(s.opts.RebalanceScan))
	defer t.Stop()
	for {
		select {
		case <-s.replicaStop:
			return
		case <-t.C:
		}
		t.Reset(scanJitter(s.opts.RebalanceScan))
		if s.draining.Load() {
			continue
		}
		if crashed := s.rebalanceOnce(); crashed {
			return
		}
	}
}

// rebalanceOnce makes at most one handoff request and adopts its job.
// crashed reports the HandoffCrash fault: the requester died, and its loop
// must end with it.
func (s *Server) rebalanceOnce() (crashed bool) {
	mine := len(s.leases.HeldJobs())
	var busiest *lease.PeerInfo
	peers := s.livePeers()
	for i := range peers {
		if busiest == nil || peers[i].Jobs > busiest.Jobs {
			busiest = &peers[i]
		}
	}
	if busiest == nil || busiest.Jobs-mine < s.opts.RebalanceMargin {
		return false
	}
	// Pick one job the busiest peer actually still owns from the lease
	// directory (its heartbeat count may be a beat stale).
	ls, err := s.leases.List()
	if err != nil {
		return false
	}
	job := ""
	for _, l := range ls {
		if l.Owner == busiest.ID && !l.Released {
			job = l.Job
			break
		}
	}
	if job == "" {
		return false
	}
	body, _ := json.Marshal(handoffRequest{To: s.opts.ReplicaID})
	resp, err := proxyClient.Post(busiest.URL+"/leases/"+job+"/handoff", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false // dropped or refused; a later tick retries if still worth it
	}
	// The owner has released the lease with a pointer reserved for us.
	if s.opts.Chaos.Fire(chaos.HandoffCrash) {
		// Fault point: this requester "dies" between the owner's release
		// and its own adoption, and requests nothing more. The targeted
		// reservation parks the lease for one TTL, then ordinary failover
		// adopts the job — it is never lost and never double-owned.
		return true
	}
	if l, ok, err := s.leases.Get(job); err == nil && ok && s.leases.Stealable(l) {
		s.takeover(l)
	}
	return false
}

// handleDrain is POST /drain: stop admission and hand every owned job
// off to the peers, without exiting — the admin half of a rolling
// restart (SIGTERM takes the same path and then exits).
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Drain())
}

// handoffRequest is the body of POST /leases/{id}/handoff.
type handoffRequest struct {
	// To is the requesting replica's id; the released lease is reserved
	// for it for one TTL. Empty releases for any peer.
	To string `json:"to"`
}

// handleLeaseHandoff is the owner side of POST /leases/{id}/handoff.
func (s *Server) handleLeaseHandoff(w http.ResponseWriter, r *http.Request) {
	if s.leases == nil {
		writeError(w, http.StatusNotFound, "not a replica: no lease directory")
		return
	}
	id := r.PathValue("id")
	var req handoffRequest
	_ = json.NewDecoder(r.Body).Decode(&req) // empty body = untargeted
	if s.opts.Chaos.Fire(chaos.HandoffDrop) {
		// Fault point: the request is dropped on the floor before any
		// state changes — the owner keeps driving the job and the
		// requester retries on a later rebalance tick.
		writeError(w, http.StatusServiceUnavailable, "handoff request for %q dropped (chaos)", id)
		return
	}
	h, err := s.handoffJob(id, req.To)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// handleLeaseAdopt is POST /leases/{id}/adopt — a draining peer's nudge
// to take a released lease over right now instead of on the next
// failover scan. 202 means the takeover was started; losing the
// acquire race to another replica is success from the tier's point of
// view, so the nudge is always best effort.
func (s *Server) handleLeaseAdopt(w http.ResponseWriter, r *http.Request) {
	if s.leases == nil {
		writeError(w, http.StatusNotFound, "not a replica: no lease directory")
		return
	}
	id := r.PathValue("id")
	if s.draining.Load() {
		writeError(w, http.StatusConflict, "replica %s is draining and adopts nothing", s.opts.ReplicaID)
		return
	}
	l, ok, err := s.leases.Get(id)
	if err != nil || !ok {
		writeError(w, http.StatusNotFound, "no lease for job %q", id)
		return
	}
	if !s.leases.Stealable(l) {
		writeError(w, http.StatusConflict, "lease for %q is live under replica %s", id, l.Owner)
		return
	}
	// Adopt in the background: the drainer must not block behind our
	// journal adoption and resume.
	go s.takeover(l)
	writeJSON(w, http.StatusAccepted, map[string]any{"adopting": id})
}

// handlePeers is GET /peers: the fresh peer-directory heartbeats — the
// advisory view the rebalancer and submit forwarder act on.
func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	if s.peers == nil {
		writeError(w, http.StatusNotFound, "not a replica: no peer directory")
		return
	}
	infos, err := s.peers.List(s.opts.LeaseTTL)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading peer directory: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, infos)
}
