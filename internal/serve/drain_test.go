package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cwcflow/internal/chaos"
	"cwcflow/internal/lease"
	"cwcflow/internal/serve"
)

// noRedirect performs requests without following redirects, so tests can
// assert on the 307s themselves.
var noRedirect = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
	return http.ErrUseLastResponse
}}

// drainReplica POSTs /drain and decodes the report.
func drainReplica(t *testing.T, base string) serve.DrainReport {
	t.Helper()
	resp, err := http.Post(base+"/drain", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain status %d", resp.StatusCode)
	}
	var rep serve.DrainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decoding drain report: %v", err)
	}
	return rep
}

// leaseProbe opens a read-only manager on the tier's lease directory.
func leaseProbe(t *testing.T, dataDir string) *lease.Manager {
	t.Helper()
	m, err := lease.NewManager(lease.Options{
		Dir:   filepath.Join(dataDir, "leases"),
		Owner: "probe",
		TTL:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDrainHandsOffWithoutTTLWait is the voluntary-handoff acceptance
// pin: draining replica A checkpoints its running job, releases the
// lease with a handoff pointer and nudges B, which adopts and finishes
// bit-identically — all far faster than the 10s lease TTL that crash
// failover would have had to wait out. Both failover scans are parked at
// an hour, so ONLY the handoff protocol can explain the job moving.
func TestDrainHandsOffWithoutTTLWait(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
		DrainGrace:    20 * time.Millisecond,
	})
	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
	})

	st := submitJob(t, aURL, longWalkSpec(24))
	waitWindows(t, aURL, st.ID, 1)

	start := time.Now()
	rep := drainReplica(t, aURL)
	if !rep.Draining || len(rep.Jobs) != 1 {
		t.Fatalf("drain report = %+v, want draining with 1 handed-off job", rep)
	}
	if rep.Jobs[0].Job != st.ID || rep.Jobs[0].Windows < 1 {
		t.Fatalf("drained job = %+v, want %s with a positive window frontier", rep.Jobs[0], st.ID)
	}
	if rep.Jobs[0].Peer != "b" {
		t.Fatalf("drain nudged peer %q, want b", rep.Jobs[0].Peer)
	}

	waitForState(t, bURL, st.ID, serve.StateDone)
	if since := time.Since(start); since >= 10*time.Second {
		t.Fatalf("drain-to-done took %v: the handoff waited out the lease TTL instead of transferring", since)
	}
	stB, digest := runStatusAndDigest(t, bURL, st.ID)
	if digest != refDigest {
		t.Fatalf("handed-off digest %s != uninterrupted %s", digest, refDigest)
	}
	if !stB.Recovered {
		t.Fatal("handed-off job not flagged recovered on the adopter")
	}

	// The drained replica redirects new submissions to the live peer.
	body, _ := json.Marshal(longWalkSpec(8))
	resp, err := noRedirect.Post(aURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("submit to draining replica: status %d, want 307", resp.StatusCode)
	}
	if loc, want := resp.Header.Get("Location"), bURL+"/jobs"; loc != want {
		t.Fatalf("submit redirect Location %q, want %q", loc, want)
	}

	// And advertises the drain on /healthz.
	resp, err = http.Get(aURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h["draining"] != true {
		t.Fatalf("healthz draining = %v, want true", h["draining"])
	}

	// Reads through the drained replica still work: the foreign path
	// answers from the adopter's lease and journal.
	stA := getStatus(t, aURL, st.ID)
	if stA.State != serve.StateDone || stA.Owner != "b" {
		t.Fatalf("status via drained replica = state %s owner %q, want done/b", stA.State, stA.Owner)
	}
}

// TestRebalanceMovesJobOffOverloadedPeer pins the anti-entropy half:
// idle replica B notices A owns 3 jobs (margin 2 exceeded), requests a
// handoff and adopts at epoch+1. One job moves per tick, and each move
// is a single transfer — a moved lease sits at exactly epoch 2, never
// higher (no ping-pong). Every job still finishes with the reference
// digest. (B may pull more than one job over the run: it finishes its
// adopted work quickly and legitimately becomes underloaded again.)
func TestRebalanceMovesJobOffOverloadedPeer(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1, // A never requests; it only honours requests
		DrainGrace:    10 * time.Millisecond,
		// Three byte-identical submissions must become three jobs here:
		// with the cache on they would attach to the first, and this test
		// needs A genuinely overloaded (digests are pinned to the golden
		// seed, so the specs cannot vary instead).
		NoCache: true,
	})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitJob(t, aURL, longWalkSpec(24)).ID)
	}
	waitWindows(t, aURL, ids[0], 1)

	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: 25 * time.Millisecond,
	})

	for _, id := range ids {
		waitForState(t, bURL, id, serve.StateDone)
		_, digest := runStatusAndDigest(t, bURL, id)
		if digest != refDigest {
			t.Fatalf("job %s digest %s != reference %s", id, digest, refDigest)
		}
	}

	probe := leaseProbe(t, dir)
	ls, err := probe.List()
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, l := range ls {
		if l.Owner == "b" {
			moved++
			if l.Epoch != 2 {
				t.Fatalf("rebalanced lease %s at epoch %d, want exactly 2 (one epoch+1 adoption, no ping-pong)", l.Job, l.Epoch)
			}
		}
	}
	if moved < 1 {
		t.Fatal("rebalancer never moved a job off the overloaded replica")
	}
}

// TestConcurrentDrainsHandOffCleanly drains two replicas at once while
// each owns a running job: whatever interleaving the nudges take (a
// draining peer refuses adoptions), the third replica's failover scan
// adopts both released leases and finishes both jobs bit-identically —
// zero failed jobs.
func TestConcurrentDrainsHandOffCleanly(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
		DrainGrace:    5 * time.Millisecond,
	})
	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
		DrainGrace:    5 * time.Millisecond,
	})
	_, cURL := newReplicaServer(t, dir, "c", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  25 * time.Millisecond,
		RebalanceScan: -1,
	})

	jobA := submitJob(t, aURL, longWalkSpec(24))
	jobB := submitJob(t, bURL, longWalkSpec(24))
	waitWindows(t, aURL, jobA.ID, 1)
	waitWindows(t, bURL, jobB.ID, 1)

	var wg sync.WaitGroup
	for _, base := range []string{aURL, bURL} {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			drainReplica(t, base)
		}(base)
	}
	wg.Wait()

	for _, id := range []string{jobA.ID, jobB.ID} {
		waitForState(t, cURL, id, serve.StateDone)
		stC, digest := runStatusAndDigest(t, cURL, id)
		if stC.State != serve.StateDone {
			t.Fatalf("job %s finished %s, want done", id, stC.State)
		}
		if digest != refDigest {
			t.Fatalf("job %s digest %s != reference %s", id, digest, refDigest)
		}
	}
}

// TestDrainRacesExpirySteal races a voluntary drain against a chaos-
// accelerated expiry steal of the same job: epoch fencing means either
// interleaving is safe — the release-with-pointer no-ops if the thief's
// epoch already landed — and the job finishes once, bit-identically, on
// the thief.
func TestDrainRacesExpirySteal(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      500 * time.Millisecond,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
		DrainGrace:    5 * time.Millisecond,
	})
	st := submitJob(t, aURL, longWalkSpec(24))
	waitWindows(t, aURL, st.ID, 1)

	inj := chaos.New(42)
	inj.Arm(chaos.LeaseExpireEarly, chaos.Rule{Prob: 1})
	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      500 * time.Millisecond,
		FailoverScan:  10 * time.Millisecond,
		RebalanceScan: -1,
		Chaos:         inj,
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		drainReplica(t, aURL)
	}()
	<-done

	waitForState(t, bURL, st.ID, serve.StateDone)
	_, digest := runStatusAndDigest(t, bURL, st.ID)
	if digest != refDigest {
		t.Fatalf("digest after drain/steal race %s != reference %s", digest, refDigest)
	}
}

// TestHandoffNudgeBurstTakesOverOnce pins that one replica takes a job
// over once however many readers of its stealable lease ask it to: a burst
// of adopt nudges (standing in for a nudge racing the failover scan) all see
// A's lease as stealable, and acquiring a lease one already holds succeeds,
// so without serialisation each later takeover would resume the job again
// beside the first and the copies would fence each other at the finish.
func TestHandoffNudgeBurstTakesOverOnce(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      500 * time.Millisecond,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
	})
	st := submitJob(t, aURL, longWalkSpec(24))
	waitWindows(t, aURL, st.ID, 1)

	inj := chaos.New(42)
	inj.Arm(chaos.LeaseExpireEarly, chaos.Rule{Prob: 1})
	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      500 * time.Millisecond,
		FailoverScan:  time.Hour, // only the nudges below move the job
		RebalanceScan: -1,
		Chaos:         inj,
	})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(bURL+"/leases/"+st.ID+"/adopt", "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	waitForState(t, bURL, st.ID, serve.StateDone)
	if _, digest := runStatusAndDigest(t, bURL, st.ID); digest != refDigest {
		t.Fatalf("digest after the nudge burst %s != reference %s", digest, refDigest)
	}
	if got := metricValue(t, fetchMetrics(t, bURL), "cwc_lease_takeovers_total"); got != 1 {
		t.Fatalf("cwc_lease_takeovers_total = %v on b, want 1", got)
	}
}

// TestChaosHandoffRequesterDiesFallsBackToFailover is the chaos
// acceptance pin for the transfer protocol: requester B gets owner A to
// release a job reserved for it, then "dies" (HandoffCrash) before
// adopting. The targeted reservation parks the lease for one TTL, after
// which bystander C's ordinary failover scan adopts the job and finishes
// it bit-identically — the job is never lost and never double-owned.
func TestChaosHandoffRequesterDiesFallsBackToFailover(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
		DrainGrace:    10 * time.Millisecond,
		// Two identical golden-seed submissions must be two jobs (see
		// TestRebalanceMovesJobOffOverloadedPeer).
		NoCache: true,
	})
	job1 := submitJob(t, aURL, longWalkSpec(24))
	job2 := submitJob(t, aURL, longWalkSpec(24))
	waitWindows(t, aURL, job1.ID, 1)

	inj := chaos.New(7)
	inj.Arm(chaos.HandoffCrash, chaos.Rule{Prob: 1, Limit: 1})
	_, _ = newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      time.Second,
		FailoverScan:  time.Hour, // B's failover is parked: only its rebalance requester runs
		RebalanceScan: 30 * time.Millisecond,
		Chaos:         inj,
	})
	_, cURL := newReplicaServer(t, dir, "c", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      time.Second,
		FailoverScan:  50 * time.Millisecond,
		RebalanceScan: -1,
	})

	for _, id := range []string{job1.ID, job2.ID} {
		waitForState(t, cURL, id, serve.StateDone)
		_, digest := runStatusAndDigest(t, cURL, id)
		if digest != refDigest {
			t.Fatalf("job %s digest %s != reference %s", id, digest, refDigest)
		}
	}
	if got := inj.Fired(chaos.HandoffCrash); got != 1 {
		t.Fatalf("HandoffCrash fired %d times, want exactly 1", got)
	}

	// Exactly one job fell through to C (the crashed handoff), and B —
	// the requester that "died" mid-transfer — owns nothing.
	probe := leaseProbe(t, dir)
	ls, err := probe.List()
	if err != nil {
		t.Fatal(err)
	}
	onC := 0
	for _, l := range ls {
		switch l.Owner {
		case "c":
			onC++
			if l.Epoch < 2 {
				t.Fatalf("fallback adoption of %s at epoch %d, want >= 2", l.Job, l.Epoch)
			}
		case "b":
			t.Fatalf("crashed requester b owns lease %s; the handoff double-owned", l.Job)
		}
	}
	if onC != 1 {
		t.Fatalf("%d jobs adopted by c, want exactly the 1 crashed handoff", onC)
	}
}

// TestChaosHandoffRequestDropped drops the first handoff request on the
// owner's floor (before any state changes): the owner keeps driving the
// job, the requester's next rebalance tick retries, and the second
// request goes through.
func TestChaosHandoffRequestDropped(t *testing.T) {
	_, refURL := newRemoteServer(t, 0, serve.Options{})
	_, refDigest := runToDigest(t, refURL, longWalkSpec(24))

	dir := t.TempDir()
	inj := chaos.New(11)
	inj.Arm(chaos.HandoffDrop, chaos.Rule{Prob: 1, Limit: 1})
	_, aURL := newReplicaServer(t, dir, "a", serve.Options{
		Resolver:      snapWalkResolver(2 * time.Millisecond),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
		DrainGrace:    10 * time.Millisecond,
		Chaos:         inj, // the drop fires in A's handoff handler
		// Two identical golden-seed submissions must be two jobs (see
		// TestRebalanceMovesJobOffOverloadedPeer).
		NoCache: true,
	})
	job1 := submitJob(t, aURL, longWalkSpec(24))
	job2 := submitJob(t, aURL, longWalkSpec(24))
	waitWindows(t, aURL, job1.ID, 1)

	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: 25 * time.Millisecond,
	})

	for _, id := range []string{job1.ID, job2.ID} {
		waitForState(t, bURL, id, serve.StateDone)
		_, digest := runStatusAndDigest(t, bURL, id)
		if digest != refDigest {
			t.Fatalf("job %s digest %s != reference %s", id, digest, refDigest)
		}
	}
	if got := inj.Fired(chaos.HandoffDrop); got != 1 {
		t.Fatalf("HandoffDrop fired %d times, want 1", got)
	}
	probe := leaseProbe(t, dir)
	ls, err := probe.List()
	if err != nil {
		t.Fatal(err)
	}
	onB := 0
	for _, l := range ls {
		if l.Owner == "b" {
			onB++
		}
	}
	if onB != 1 {
		t.Fatalf("%d jobs on b after the dropped-then-retried handoff, want 1", onB)
	}
}

// TestStreamToDeadOwnerAnswers503 covers the dead-owner read fallback: a
// lease names an owner whose socket is gone (and which never heartbeats
// into the peer directory), so redirecting a stream there would strand
// the client. The replica answers 503 with Retry-After bounded by the
// lease TTL instead; cancels get the same treatment rather than a
// doomed proxy attempt.
func TestStreamToDeadOwnerAnswers503(t *testing.T) {
	dir := t.TempDir()
	_, bURL := newReplicaServer(t, dir, "b", serve.Options{
		Resolver:      snapWalkResolver(0),
		LeaseTTL:      10 * time.Second,
		FailoverScan:  time.Hour,
		RebalanceScan: -1,
	})

	ghost, err := lease.NewManager(lease.Options{
		Dir:   filepath.Join(dir, "leases"),
		Owner: "ghost",
		URL:   "http://127.0.0.1:9", // nothing listens here
		TTL:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.Acquire("job-ghost-000001"); err != nil {
		t.Fatal(err)
	}

	resp, err := noRedirect.Get(bURL + "/jobs/job-ghost-000001/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream to dead owner: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("dead-owner 503 carries no Retry-After")
	}

	resp, err = http.Post(bURL+"/jobs/job-ghost-000001/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cancel to dead owner: status %d, want 503", resp.StatusCode)
	}
}
