package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"cwcflow/internal/chaos"
)

// A fence refusal must block every append kind and surface ErrFenced,
// while reads stay unaffected.
func TestFenceRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.AppendSubmit("job-ok", time.Unix(0, 1), json.RawMessage(`{}`), ""); err != nil {
		t.Fatal(err)
	}
	fenced := errors.New("lease for job-ok expired")
	s.SetFence(func(job string) error {
		if job == "job-ok" {
			return fenced
		}
		return nil
	})
	if err := s.AppendWindow("job-ok", 0, testWindow(0)); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendWindow = %v, want ErrFenced", err)
	}
	if err := s.AppendCheckpoint("job-ok", 0, 8, []byte{1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendCheckpoint = %v, want ErrFenced", err)
	}
	if err := s.AppendTerminal("job-ok", "done", "", nil); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendTerminal = %v, want ErrFenced", err)
	}
	// Other jobs pass the fence; reads are never fenced.
	if err := s.AppendSubmit("job-other", time.Unix(0, 2), json.RawMessage(`{}`), ""); err != nil {
		t.Fatalf("unfenced submit: %v", err)
	}
	if got := len(s.Recovered()); got != 2 {
		t.Fatalf("Recovered = %d jobs, want 2", got)
	}
	// Lifting the fence restores writes.
	s.SetFence(nil)
	if err := s.AppendWindow("job-ok", 0, testWindow(0)); err != nil {
		t.Fatalf("append after fence lift: %v", err)
	}
}

// ReadJournal replays another directory's journal without mutating it,
// and Adopt re-journals the record so it survives OUR restart.
func TestReadJournalAndAdopt(t *testing.T) {
	ownerDir, thiefDir := t.TempDir(), t.TempDir()

	owner := openStore(t, ownerDir, Options{RetainWindows: 4})
	spec := json.RawMessage(`{"model":"sir","trajectories":2}`)
	at := time.Unix(0, 77)
	if err := owner.AppendSubmit("job-a-000001", at, spec, "alice"); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 6; seq++ { // 6 windows, only 4 retained
		if err := owner.AppendWindow("job-a-000001", seq, testWindow(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.AppendCheckpoint("job-a-000001", 1, 16, []byte{16}); err != nil {
		t.Fatal(err)
	}
	if err := owner.Sync(); err != nil {
		t.Fatal(err)
	}
	ownerSize := owner.Stats().JournalBytes

	recs, err := ReadJournal(ownerDir, Options{RetainWindows: 4})
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("ReadJournal = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.WindowCount != 6 || rec.FirstRetained != 2 || len(rec.Windows) != 4 {
		t.Fatalf("peeked record: count=%d first=%d retained=%d", rec.WindowCount, rec.FirstRetained, len(rec.Windows))
	}
	if owner.Stats().JournalBytes != ownerSize {
		t.Fatal("ReadJournal grew the owner's journal")
	}

	thief := openStore(t, thiefDir, Options{RetainWindows: 4})
	if err := thief.Adopt(rec); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	// The adopted job accepts new progress in the thief's journal.
	if err := thief.AppendWindow("job-a-000001", 6, testWindow(6)); err != nil {
		t.Fatalf("append after adopt: %v", err)
	}
	if err := thief.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, thiefDir, Options{RetainWindows: 4})
	got := re.Recovered()
	if len(got) != 1 {
		t.Fatalf("thief restart recovered %d jobs, want 1", len(got))
	}
	g := got[0]
	if g.ID != "job-a-000001" || g.Tenant != "alice" || !g.SubmittedAt.Equal(at) {
		t.Fatalf("adopted record after restart: %+v", g)
	}
	if g.WindowCount != 7 || g.FirstRetained != 3 || len(g.Windows) != 4 {
		t.Fatalf("adopted windows after restart: count=%d first=%d retained=%d", g.WindowCount, g.FirstRetained, len(g.Windows))
	}
	if cp, ok := g.BestCheckpoint(1, 1000); !ok || cp.NextIdx != 16 {
		t.Fatalf("adopted checkpoint lost: %+v ok=%v", cp, ok)
	}
	// The owner's journal was never touched.
	if ownerRecs, _ := ReadJournal(ownerDir, Options{RetainWindows: 4}); ownerRecs[0].WindowCount != 6 {
		t.Fatal("owner journal mutated by adoption")
	}
}

// Adopt must replace a stale local copy of the same job rather than
// duplicate it.
func TestAdoptReplacesStaleLocalRecord(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	spec := json.RawMessage(`{}`)
	if err := s.AppendSubmit("job-x", time.Unix(0, 1), spec, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWindow("job-x", 0, testWindow(0)); err != nil {
		t.Fatal(err)
	}
	fresh := &JobRecord{
		ID: "job-x", Spec: spec, SubmittedAt: time.Unix(0, 1),
		WindowCount: 3, FirstRetained: 0,
	}
	for seq := 0; seq < 3; seq++ {
		fresh.Windows = append(fresh.Windows, *testWindow(seq))
	}
	if err := s.Adopt(fresh); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	recs := s.Recovered()
	if len(recs) != 1 || recs[0].WindowCount != 3 {
		t.Fatalf("after adopt: %d records, count=%d", len(recs), recs[0].WindowCount)
	}
	// And the replacement is what replay reconstructs too.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, Options{})
	if got := re.Recovered(); len(got) != 1 || got[0].WindowCount != 3 {
		t.Fatalf("after restart: %d records, count=%d", len(got), got[0].WindowCount)
	}
}

func TestReadJournalMissingDirIsEmpty(t *testing.T) {
	recs, err := ReadJournal(t.TempDir()+"/nope", Options{})
	if err != nil || recs != nil {
		t.Fatalf("ReadJournal(missing) = %v, %v", recs, err)
	}
}

// An armed FsyncStall chaos point delays fsynced appends but must not
// affect durability or correctness.
func TestChaosFsyncStallStillDurable(t *testing.T) {
	dir := t.TempDir()
	in := chaos.New(3)
	in.Arm(chaos.FsyncStall, chaos.Rule{Prob: 1, Delay: 5 * time.Millisecond})
	s := openStore(t, dir, Options{Chaos: in})
	start := time.Now()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("job-%06d", i)
		if err := s.AppendSubmit(id, time.Unix(0, 1), json.RawMessage(`{}`), ""); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("FsyncStall did not stall")
	}
	if got := in.Fired(chaos.FsyncStall); got != 3 {
		t.Fatalf("FsyncStall fired %d times, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, Options{})
	if got := len(re.Recovered()); got != 3 {
		t.Fatalf("recovered %d jobs after stalled fsyncs, want 3", got)
	}
}

// A job adopted back onto a replica can still have stragglers of its
// previous incarnation journaling checkpoints and windows into the adopted
// record, so the resume path reads the record through Snapshot. The
// straggler and the adopter run concurrently here; the race detector
// (-race -count=20 in CI) is the assertion.
func TestSnapshotWhileStragglerCheckpoints(t *testing.T) {
	const id = "job-a-000001"
	s := openStore(t, t.TempDir(), Options{RetainWindows: 4})
	if err := s.AppendSubmit(id, time.Unix(0, 77), json.RawMessage(`{}`), "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(id, 0, 8, []byte{8}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	straggler := make(chan error, 1)
	go func() {
		for i := 0; i < 2*rounds; i++ {
			if err := s.AppendCheckpoint(id, 1+i%3, 16+i, []byte{byte(i)}); err != nil {
				straggler <- err
				return
			}
			if err := s.AppendWindow(id, i, testWindow(i)); err != nil {
				straggler <- err
				return
			}
		}
		straggler <- nil
	}()
	for i := 0; i < rounds; i++ {
		recs, err := ReadJournal(s.dir, Options{RetainWindows: 4})
		if err != nil || len(recs) != 1 {
			t.Fatalf("ReadJournal = %d records, %v", len(recs), err)
		}
		if err := s.Adopt(recs[0]); err != nil {
			t.Fatal(err)
		}
		snap, ok := s.Snapshot(id)
		if !ok {
			t.Fatal("adopted job has no snapshot")
		}
		if cp, ok := snap.BestCheckpoint(0, 8); !ok || cp.NextIdx != 8 {
			t.Fatalf("round %d: checkpoint at or below 8 = %+v, %v", i, cp, ok)
		}
		if got := snap.FirstRetained + len(snap.Windows); got != snap.WindowCount {
			t.Fatalf("round %d: snapshot retains windows up to %d of %d", i, got, snap.WindowCount)
		}
	}
	if err := <-straggler; err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Snapshot("job-unknown"); ok {
		t.Fatal("snapshot of an unknown job")
	}
}
