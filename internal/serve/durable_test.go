package serve_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/serve"
	"cwcflow/internal/sim"
	"cwcflow/internal/store"
)

// throttledSim slows a snapshotable engine down without touching its
// trajectory: sleeps are not state, so checkpoints taken from a
// throttled engine restore into a full-speed one bit-identically. The
// crashing servers in these tests run throttled (so the job is reliably
// caught mid-run); the recovering servers run at full speed.
type throttledSim struct {
	sim.SnapshotSimulator
	delay time.Duration
}

func (s *throttledSim) Step() bool {
	time.Sleep(s.delay)
	return s.SnapshotSimulator.Step()
}

// throttledResolver wraps the real model registry with a per-step delay.
func throttledResolver(delay time.Duration) func(core.ModelRef) (core.SimulatorFactory, error) {
	return func(ref core.ModelRef) (core.SimulatorFactory, error) {
		inner, err := core.FactoryFor(ref)
		if err != nil {
			return nil, err
		}
		return func(traj int, seed int64) (sim.Simulator, error) {
			s, err := inner(traj, seed)
			if err != nil {
				return nil, err
			}
			ss, ok := s.(sim.SnapshotSimulator)
			if !ok {
				return s, nil
			}
			return &throttledSim{ss, delay}, nil
		}, nil
	}
}

// newDurableServer starts a server backed by dir. A nil resolver uses the
// real model registry (core.FactoryFor), so jobs run the snapshotable
// gillespie engines and resume exercises real checkpoints.
func newDurableServer(t *testing.T, dir string, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	opts.DataDir = dir
	svc, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	base := newHTTPServer(t, svc.Handler())
	t.Cleanup(svc.Close)
	return svc, base
}

// sirSpec is a real-model job long enough to be caught mid-run: 385
// samples per trajectory, 49 tumbling windows.
func sirSpec() serve.JobSpec {
	return serve.JobSpec{
		Model:        "sir",
		Omega:        100,
		Trajectories: 8,
		End:          48,
		Period:       0.125,
		WindowSize:   8,
		WindowStep:   8,
		Seed:         42,
	}
}

// waitWindows polls until the job has published at least n windows.
func waitWindows(t *testing.T, base, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, base, id)
		if st.Progress.Windows >= n {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s with only %d windows", st.State, st.Progress.Windows)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never published %d windows (at %d)", n, st.Progress.Windows)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// crashImage copies dir's journal into a fresh directory — byte-for-byte
// what a SIGKILL at this instant would leave on disk (every append hits
// the file in one write; a torn tail would be truncated on recovery).
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(img, "journal.wal"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	return img
}

// verifyMidRunImage asserts the crash image really holds an in-flight
// job (no terminal event, some windows published) — otherwise the resume
// tests would pass vacuously by restoring a finished job.
func verifyMidRunImage(t *testing.T, img, id string, minWindows int) {
	t.Helper()
	st, err := store.Open(img, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range st.Recovered() {
		if rec.ID != id {
			continue
		}
		if rec.Terminal != "" {
			t.Fatalf("crash image already holds a terminal job (%s): job too fast to be caught mid-run, enlarge the spec", rec.Terminal)
		}
		if rec.WindowCount < minWindows {
			t.Fatalf("crash image holds %d windows, want >= %d", rec.WindowCount, minWindows)
		}
		return
	}
	t.Fatalf("job %s not in crash image", id)
}

// unrestorableSim is a snapshotable engine whose Restore always fails —
// the engine of a build that cannot read the journal's checkpoints.
type unrestorableSim struct{ sim.SnapshotSimulator }

func (unrestorableSim) Restore([]byte) error { return errors.New("incompatible checkpoint") }

// unrestorableResolver wraps the real model registry with engines whose
// Restore fails.
func unrestorableResolver(ref core.ModelRef) (core.SimulatorFactory, error) {
	inner, err := core.FactoryFor(ref)
	if err != nil {
		return nil, err
	}
	return func(traj int, seed int64) (sim.Simulator, error) {
		s, err := inner(traj, seed)
		if err != nil {
			return nil, err
		}
		return unrestorableSim{s.(sim.SnapshotSimulator)}, nil
	}, nil
}

// TestResumeDigestMatchesUninterrupted is the durability acceptance pin:
// a server restarted from a mid-run crash image resumes the job from its
// checkpoints and finishes with a window-stats digest bit-identical to
// the uninterrupted run's. When no checkpoint restores, every trajectory
// replays from its seed instead — the job still finishes with the same
// digest, and its trace says why.
func TestResumeDigestMatchesUninterrupted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		resolver func(core.ModelRef) (core.SimulatorFactory, error)
		fallback bool // every checkpoint fails to restore
	}{
		{name: "checkpoints"},
		{name: "restore-fails", resolver: unrestorableResolver, fallback: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, base := newDurableServer(t, dir, serve.Options{Resolver: throttledResolver(30 * time.Microsecond)})
			st := submitJob(t, base, sirSpec())

			// Take the crash image only after real mid-run state exists: some
			// windows published (durable frontier > 0) and more still to come.
			waitWindows(t, base, st.ID, 3)
			img := crashImage(t, dir)
			verifyMidRunImage(t, img, st.ID, 3)

			// The uninterrupted run is the reference.
			refSt, refDigest := runStatusAndDigest(t, base, st.ID)
			if refSt.State != serve.StateDone {
				t.Fatalf("reference job ended %s (%s)", refSt.State, refSt.Error)
			}

			// "Restart" from the crash image: the job must be recovered as
			// running (or already finishing) and complete with the same digest.
			_, base2 := newDurableServer(t, img, serve.Options{Resolver: tc.resolver})
			final, digest := runStatusAndDigest(t, base2, st.ID)
			if final.State != serve.StateDone {
				t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
			}
			if !final.Recovered {
				t.Fatal("resumed job not marked recovered")
			}
			if final.Progress.Windows != refSt.Progress.Windows {
				t.Fatalf("resumed run published %d windows, want %d", final.Progress.Windows, refSt.Progress.Windows)
			}
			if digest != refDigest {
				t.Fatalf("digest diverged after crash+resume:\n  uninterrupted %s\n  resumed       %s", refDigest, digest)
			}
			fallbacks := 0
			spans, _ := fetchTrace(t, base2, st.ID)
			for _, sp := range spans {
				if sp.Name == "restore-fallback" {
					fallbacks++
				}
			}
			if tc.fallback && fallbacks == 0 {
				t.Fatal("no restore-fallback event in the trace of a job whose checkpoints cannot restore")
			}
			if !tc.fallback && fallbacks > 0 {
				t.Fatalf("%d restore-fallback events with restorable checkpoints", fallbacks)
			}
		})
	}
}

// TestResumeUnsnapshotableModelReplays: a model whose engine cannot
// snapshot (the synthetic walk simulator) still resumes bit-identically —
// recovery replays each trajectory from its seed and the scheduler's
// filter drops the prefix below the durable window frontier.
func TestResumeUnsnapshotableModelReplays(t *testing.T) {
	opts := serve.Options{Resolver: walkResolver(time.Millisecond)}
	dir := t.TempDir()
	_, base := newDurableServer(t, dir, opts)
	spec := walkSpec()
	spec.Trajectories = 4
	spec.End = 16
	st := submitJob(t, base, spec)
	waitWindows(t, base, st.ID, 2)
	img := crashImage(t, dir)
	verifyMidRunImage(t, img, st.ID, 2)
	refSt, refDigest := runStatusAndDigest(t, base, st.ID)
	if refSt.State != serve.StateDone {
		t.Fatalf("reference job ended %s (%s)", refSt.State, refSt.Error)
	}

	_, base2 := newDurableServer(t, img, serve.Options{Resolver: walkResolver(0)})
	final, digest := runStatusAndDigest(t, base2, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("resumed job ended %s (%s)", final.State, final.Error)
	}
	if digest != refDigest {
		t.Fatalf("replay-based resume diverged:\n  uninterrupted %s\n  resumed       %s", refDigest, digest)
	}
}

// TestCompletedResultsOutliveRestart: a finished job's results are served
// after a restart without re-running anything, with its journaled final
// status, and new submissions never collide with recovered ids.
func TestCompletedResultsOutliveRestart(t *testing.T) {
	dir := t.TempDir()
	svc, base := newDurableServer(t, dir, serve.Options{})
	st := submitJob(t, base, sirSpec())
	refSt, refDigest := runStatusAndDigest(t, base, st.ID)
	if refSt.State != serve.StateDone {
		t.Fatalf("job ended %s (%s)", refSt.State, refSt.Error)
	}
	svc.Close() // graceful shutdown: final fsync

	_, base2 := newDurableServer(t, dir, serve.Options{})
	got, digest := runStatusAndDigest(t, base2, st.ID)
	if got.State != serve.StateDone || !got.Recovered {
		t.Fatalf("recovered job: state=%s recovered=%v", got.State, got.Recovered)
	}
	if got.Progress.TasksDone != refSt.Progress.TasksDone || got.Progress.Reactions != refSt.Progress.Reactions {
		t.Fatalf("journaled final status lost: %+v vs %+v", got.Progress, refSt.Progress)
	}
	if digest != refDigest {
		t.Fatalf("recovered results diverged:\n  before %s\n  after  %s", refDigest, digest)
	}
	// A new (distinct — an identical spec would hit the rebuilt cache)
	// submission gets a fresh id past the recovered sequence.
	spec2 := sirSpec()
	spec2.Seed = 43
	st2 := submitJob(t, base2, spec2)
	if st2.ID == st.ID {
		t.Fatalf("new job reused recovered id %s", st.ID)
	}
}

// TestGracefulShutdownResumesInFlight: SIGTERM-style shutdown mid-run
// does not journal the shutdown as a job failure — the next start
// resumes the job and completes it with the uninterrupted digest.
func TestGracefulShutdownResumesInFlight(t *testing.T) {
	refDir := t.TempDir()
	_, refBase := newDurableServer(t, refDir, serve.Options{})
	refJob := submitJob(t, refBase, sirSpec())
	refSt, refDigest := runStatusAndDigest(t, refBase, refJob.ID)
	if refSt.State != serve.StateDone {
		t.Fatalf("reference job ended %s (%s)", refSt.State, refSt.Error)
	}

	dir := t.TempDir()
	svc, base := newDurableServer(t, dir, serve.Options{Resolver: throttledResolver(30 * time.Microsecond)})
	st := submitJob(t, base, sirSpec())
	waitWindows(t, base, st.ID, 2)
	svc.Close() // graceful: in-flight job must NOT be journaled as failed
	verifyMidRunImage(t, dir, st.ID, 2)

	_, base2 := newDurableServer(t, dir, serve.Options{})
	final, digest := runStatusAndDigest(t, base2, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("job did not resume after graceful shutdown: %s (%s)", final.State, final.Error)
	}
	if digest != refDigest {
		t.Fatalf("post-shutdown resume diverged:\n  reference %s\n  resumed   %s", refDigest, digest)
	}
}

// TestHealthzReportsStore: healthz surfaces the store's directory and
// journal size once durability is on.
func TestHealthzReportsStore(t *testing.T) {
	dir := t.TempDir()
	_, base := newDurableServer(t, dir, serve.Options{Version: "test-build"})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Version string `json:"version"`
		Store   *struct {
			Dir          string `json:"dir"`
			JournalBytes int64  `json:"journal_bytes"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != "test-build" {
		t.Fatalf("healthz version = %q", h.Version)
	}
	if h.Store == nil || h.Store.Dir != dir {
		t.Fatalf("healthz store = %+v", h.Store)
	}
}

// TestListStateAndLimitFilters: GET /jobs?state=&limit= keeps the list
// endpoint usable once recovered history accumulates.
func TestListStateAndLimitFilters(t *testing.T) {
	_, ts := newTestServer(t, 10*time.Millisecond, serve.Options{Workers: 2})
	base := ts.URL
	fastSpec := slowSpec()
	fastSpec.End = 0.5 // two cuts: finishes in a few steps
	fastSpec.WindowSize = 2
	fastSpec.WindowStep = 2
	fast := submitJob(t, base, fastSpec)
	if resp, err := http.Get(base + "/jobs/" + fast.ID + "/result?wait=true"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	slow := submitJob(t, base, slowSpec())
	list := func(query string) []serve.Status {
		resp, err := http.Get(base + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs%s: status %d", query, resp.StatusCode)
		}
		var out []serve.Status
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if all := list(""); len(all) != 2 {
		t.Fatalf("unfiltered list has %d jobs", len(all))
	}
	done := list("?state=done")
	if len(done) != 1 || done[0].ID != fast.ID {
		t.Fatalf("state=done: %+v", done)
	}
	running := list("?state=running")
	if len(running) != 1 || running[0].ID != slow.ID {
		t.Fatalf("state=running: %+v", running)
	}
	// limit keeps the most recent entries.
	if last := list("?limit=1"); len(last) != 1 || last[0].ID != slow.ID {
		t.Fatalf("limit=1: %+v", last)
	}
	if none := list("?limit=0"); len(none) != 0 {
		t.Fatalf("limit=0: %+v", none)
	}
	resp, err := http.Get(base + "/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("state=bogus: status %d", resp.StatusCode)
	}
}
