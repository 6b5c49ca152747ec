// Package store is the durable job store behind cwc-serve's -data-dir: a
// write-ahead journal of job lifecycle events — submitted specs, published
// window statistics, per-trajectory simulation checkpoints, terminal
// states — with periodic snapshot+compaction, so a crashed or restarted
// service recovers every completed result and resumes in-flight jobs from
// their last checkpoint.
//
// Durability model. Every event is framed (length + CRC32 + JSON payload)
// and written to the journal in one write(2) before the action it records
// is considered done; replay at Open stops at the first torn or corrupt
// frame and truncates the tail, so a SIGKILL mid-write costs at most the
// record being written. fsync is paid only at the important edges (job
// submission, terminal transition, compaction, Close) — in between, a
// process crash loses nothing (the OS holds the writes) and a machine
// crash loses at most a suffix of windows/checkpoints, which recovery
// simply re-simulates: the journal's correctness invariant is that its
// surviving prefix is always a consistent resume point, never that it is
// complete.
//
// Resume model. Windows are journaled in publish order, so the recovered
// contiguous window count W defines the resume frontier: everything
// before cut W·step is durably analysed, everything after is re-derived.
// Trajectory checkpoints (sim.Task.Snapshot blobs keyed by next sample
// index) let recovery rewind each trajectory to the newest checkpoint at
// or below the frontier instead of replaying from the seed; a small
// per-trajectory ladder of recent checkpoints is retained so one is
// usually available just below any frontier. Checkpoints are an
// optimisation only — with none (e.g. the CWC engine, which cannot
// snapshot its compartment tree), deterministic replay from the seed
// plus the serve layer's resume filter still reproduces the identical
// window stream.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cwcflow/internal/chaos"
	"cwcflow/internal/core"
	"cwcflow/internal/obs"
)

// Metrics is the optional latency-histogram set the journal reports
// into. Both fields are nil-safe (obs semantics), so a zero Metrics
// disables instrumentation without call-site conditionals.
type Metrics struct {
	Append *obs.Histogram // per-frame journal write time
	Fsync  *obs.Histogram // journal fsync time (durable edges only)
}

// ckptLadder is how many recent checkpoints are retained per trajectory
// (in memory and across compactions). The analysis frontier trails the
// simulation by the in-flight quanta plus the window in assembly, so a
// few recent checkpoints almost always include one at or below it.
const ckptLadder = 4

// Options tunes a Store. The zero value is usable.
type Options struct {
	// RetainWindows caps the published windows retained per job, in
	// memory and across compactions (default 1024, matching the serve
	// result ring). Older windows are evicted; the contiguous window
	// *count* — the resume frontier — is preserved regardless.
	RetainWindows int
	// CompactBytes is the journal size that triggers a snapshot+compaction
	// rewrite on append (default 8 MiB).
	CompactBytes int64
	// Chaos, when armed with FsyncStall, delays journal fsyncs (fault
	// injection for the failover tests; nil in production).
	Chaos *chaos.Injector
	// Metrics receives WAL write/fsync latencies (zero value = no-op).
	Metrics Metrics
}

func (o Options) withDefaults() Options {
	if o.RetainWindows < 1 {
		o.RetainWindows = 1024
	}
	if o.CompactBytes < 1 {
		o.CompactBytes = 8 << 20
	}
	return o
}

// Checkpoint is one trajectory's durable resume point.
type Checkpoint struct {
	// NextIdx is the next sample index the restored task will emit.
	NextIdx int
	// Sim is the opaque sim.Task.Snapshot blob.
	Sim []byte
}

// JobRecord is the recovered state of one job. The store keeps appending
// to the records it holds (those of Recovered, and any record handed to
// Adopt) as their jobs make progress, so once a job may be running such a
// record must be read through Snapshot, never directly.
type JobRecord struct {
	ID          string
	Spec        json.RawMessage
	SubmittedAt time.Time
	// Tenant is the submitting tenant's id ("" in journals written before
	// multi-tenancy; recovery treats that as the default tenant).
	Tenant string

	// WindowCount is the number of windows durably published (the resume
	// frontier is WindowCount·step); Windows retains the most recent of
	// them, FirstRetained the absolute index of Windows[0].
	WindowCount   int
	FirstRetained int
	Windows       []core.WindowStat

	// Terminal is the job's final state ("" while in flight) with its
	// error and final status snapshot.
	Terminal string
	Error    string
	Status   json.RawMessage

	ckpts     map[int][]Checkpoint // per trajectory, oldest first
	forgotten bool
}

// BestCheckpoint returns the newest retained checkpoint of trajectory
// traj with NextIdx ≤ maxNext, if any.
func (r *JobRecord) BestCheckpoint(traj, maxNext int) (Checkpoint, bool) {
	var best Checkpoint
	found := false
	for _, c := range r.ckpts[traj] {
		if c.NextIdx <= maxNext && (!found || c.NextIdx > best.NextIdx) {
			best = c
			found = true
		}
	}
	return best, found
}

// Stats is the store's health summary for /healthz.
type Stats struct {
	Dir            string    `json:"dir"`
	JournalBytes   int64     `json:"journal_bytes"`
	Jobs           int       `json:"jobs"`
	LastCompaction time.Time `json:"last_compaction,omitzero"`
	// TruncatedBytes counts journal bytes dropped at Open because the
	// tail was torn (a crash mid-write) or corrupt.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// Store is the durable job store: an append-only journal plus the
// in-memory state replayed from it.
type Store struct {
	dir  string
	opts Options

	mu          sync.Mutex
	f           *os.File
	size        int64
	jobs        map[string]*JobRecord
	order       []string
	lastCompact time.Time
	truncated   int64
	closed      bool
	// fence, when set, is consulted before every append: a non-nil error
	// refuses the write. The replicated serve tier points it at the lease
	// manager so a replica whose job lease expired or was stolen cannot
	// journal stale progress (fencing-epoch discipline).
	fence func(job string) error
	// failed is set when a journal write error could not be rolled back:
	// the file may hold a partial frame that replay would treat as the
	// end of the journal, silently discarding everything appended after
	// it. Rather than acknowledge appends that recovery would drop, the
	// store refuses all further writes.
	failed bool
}

const journalName = "journal.wal"

// ErrFenced wraps fence refusals so callers can distinguish "this
// replica may no longer write for the job" from I/O failures.
var ErrFenced = errors.New("store: append fenced")

// SetFence installs the per-job write fence (nil disables it). Set it
// before the first guarded append; reads are never fenced.
func (s *Store) SetFence(f func(job string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fence = f
}

// Open loads (or creates) the journal under dir, replays it into memory,
// and truncates any torn tail.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		jobs: make(map[string]*JobRecord),
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: reading journal: %w", err)
	}
	good := s.replay(data)
	s.truncated = int64(len(data) - good)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	if s.truncated > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, err
	}
	// Make the journal's directory entry durable: without this, a
	// machine crash right after the first (fsynced) append could lose
	// the whole file, not just a tail suffix.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	s.size = int64(good)
	return s, nil
}

// syncDir fsyncs a directory, making renames and creations in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening data dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}

// replay applies every intact frame of data to the in-memory state and
// returns the byte offset of the first torn or corrupt frame (== len(data)
// when the journal is clean).
func (s *Store) replay(data []byte) (good int) {
	off := 0
	for {
		payload, n, ok := readFrame(data[off:])
		if !ok {
			return off
		}
		var ev event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return off
		}
		s.apply(&ev)
		off += n
	}
}

// apply folds one journal event into the in-memory state. Unknown event
// types and events for unknown jobs are ignored (forward compatibility
// and robustness over strictness: the journal is a recovery aid, not a
// ledger).
func (s *Store) apply(ev *event) {
	switch ev.Type {
	case evSubmit:
		if _, ok := s.jobs[ev.Job]; ok {
			return
		}
		rec := &JobRecord{
			ID:          ev.Job,
			Spec:        ev.Spec,
			SubmittedAt: time.Unix(0, ev.At),
			Tenant:      ev.Tenant,
			ckpts:       make(map[int][]Checkpoint),
		}
		s.jobs[ev.Job] = rec
		s.order = append(s.order, ev.Job)
	case evWindow:
		rec := s.jobs[ev.Job]
		if rec == nil || ev.Window == nil || ev.Seq != rec.WindowCount {
			return
		}
		rec.WindowCount++
		rec.Windows = append(rec.Windows, *ev.Window)
		if over := len(rec.Windows) - s.opts.RetainWindows; over > 0 {
			rec.Windows = append(rec.Windows[:0], rec.Windows[over:]...)
			rec.FirstRetained += over
		}
	case evCkpt:
		rec := s.jobs[ev.Job]
		if rec == nil || rec.Terminal != "" {
			return
		}
		ladder := append(rec.ckpts[ev.Traj], Checkpoint{NextIdx: ev.Next, Sim: ev.Sim})
		if len(ladder) > ckptLadder {
			ladder = append(ladder[:0], ladder[len(ladder)-ckptLadder:]...)
		}
		rec.ckpts[ev.Traj] = ladder
	case evFrontier:
		// Compaction marker: ev.Seq windows existed before the retained
		// tail that follows.
		rec := s.jobs[ev.Job]
		if rec == nil || ev.Seq < rec.WindowCount {
			return
		}
		rec.WindowCount = ev.Seq
		rec.FirstRetained = ev.Seq
		rec.Windows = rec.Windows[:0]
	case evTerminal:
		rec := s.jobs[ev.Job]
		if rec == nil {
			return
		}
		rec.Terminal = ev.State
		rec.Error = ev.Err
		rec.Status = ev.Status
		rec.ckpts = make(map[int][]Checkpoint) // no longer needed
	}
}

// Recovered returns the replayed job records in submission order. Call
// once at boot, before new appends; the store keeps updating the same
// records as resumed jobs progress (see Snapshot).
func (s *Store) Recovered() []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Snapshot returns a private copy of job id's record, taken under the
// store's lock: the resume path reads its frontier, retained windows and
// checkpoint ladders from it while pool workers and stat engines of a
// previous incarnation of the job may still be appending to the store's
// own record. Window contents and checkpoint blobs are immutable once
// journaled and are shared, not copied.
func (s *Store) Snapshot(id string) (*JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	snap := *rec
	snap.Windows = append([]core.WindowStat(nil), rec.Windows...)
	snap.ckpts = make(map[int][]Checkpoint, len(rec.ckpts))
	for traj, ladder := range rec.ckpts {
		snap.ckpts[traj] = append([]Checkpoint(nil), ladder...)
	}
	return &snap, true
}

// ReadJournal replays the journal under dir read-only and returns its
// job records in submission order, without opening the file for writing
// or truncating torn tails. Replicas use it to serve reads for jobs
// another replica owns, and to adopt a dead owner's jobs after a lease
// steal: the WAL's replay fold is convergent (windows only apply in
// sequence, duplicates are ignored), so reading a live owner's journal
// mid-append is safe — at worst the tail frame is torn and replay stops
// one event early. A missing journal yields no records.
func ReadJournal(dir string, opts Options) ([]*JobRecord, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, jobs: make(map[string]*JobRecord)}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading journal %s: %w", dir, err)
	}
	s.replay(data)
	out := make([]*JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out, nil
}

// Adopt journals a snapshot of rec — typically read from a dead
// replica's journal via ReadJournal — into THIS store's journal and
// takes ownership of the record, replacing any stale local copy. The
// emitted events mirror compaction (submit, frontier marker, retained
// windows, checkpoint ladders, terminal), so replay of our own journal
// reconstructs the adopted state exactly; the write is fsynced because
// a takeover the thief acknowledged must not evaporate. The caller must
// already hold the job's lease when a fence is installed.
func (s *Store) Adopt(rec *JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.failed {
		return fmt.Errorf("store: journal failed by an earlier write error")
	}
	if s.fence != nil {
		if err := s.fence(rec.ID); err != nil {
			return fmt.Errorf("%w: %v", ErrFenced, err)
		}
	}
	if s.size >= s.opts.CompactBytes {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	if rec.ckpts == nil {
		rec.ckpts = make(map[int][]Checkpoint)
	}
	var frames, scratch []byte
	emit := func(ev *event) error {
		payload, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		scratch = appendFrame(scratch[:0], payload)
		frames = append(frames, scratch...)
		return nil
	}
	if err := emit(&event{Type: evSubmit, Job: rec.ID, At: rec.SubmittedAt.UnixNano(), Spec: rec.Spec, Tenant: rec.Tenant}); err != nil {
		return err
	}
	if rec.FirstRetained > 0 {
		if err := emit(&event{Type: evFrontier, Job: rec.ID, Seq: rec.FirstRetained}); err != nil {
			return err
		}
	}
	for i := range rec.Windows {
		if err := emit(&event{Type: evWindow, Job: rec.ID, Seq: rec.FirstRetained + i, Window: &rec.Windows[i]}); err != nil {
			return err
		}
	}
	for traj, ladder := range rec.ckpts {
		for _, c := range ladder {
			if err := emit(&event{Type: evCkpt, Job: rec.ID, Traj: traj, Next: c.NextIdx, Sim: c.Sim}); err != nil {
				return err
			}
		}
	}
	if rec.Terminal != "" {
		if err := emit(&event{Type: evTerminal, Job: rec.ID, State: rec.Terminal, Err: rec.Error, Status: rec.Status}); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(frames); err != nil {
		if terr := s.f.Truncate(s.size); terr != nil {
			s.failed = true
		} else if _, serr := s.f.Seek(s.size, 0); serr != nil {
			s.failed = true
		}
		return fmt.Errorf("store: adoption write: %w", err)
	}
	s.size += int64(len(frames))
	if _, ok := s.jobs[rec.ID]; !ok {
		s.order = append(s.order, rec.ID)
	}
	rec.forgotten = false
	s.jobs[rec.ID] = rec
	if d := s.opts.Chaos.Stall(chaos.FsyncStall); d > 0 {
		time.Sleep(d)
	}
	return s.f.Sync()
}

// AppendSubmit journals a new job's spec and owning tenant (fsynced:
// losing a submission the client was told about is not acceptable).
func (s *Store) AppendSubmit(id string, at time.Time, spec json.RawMessage, tenant string) error {
	return s.append(&event{Type: evSubmit, Job: id, At: at.UnixNano(), Spec: spec, Tenant: tenant}, true)
}

// AppendWindow journals one published window. seq must be the job's next
// window sequence number; windows are the resume frontier, so they must
// be journaled in publish order.
func (s *Store) AppendWindow(id string, seq int, ws *core.WindowStat) error {
	return s.append(&event{Type: evWindow, Job: id, Seq: seq, Window: ws}, false)
}

// AppendCheckpoint journals one trajectory checkpoint.
func (s *Store) AppendCheckpoint(id string, traj, next int, sim []byte) error {
	return s.append(&event{Type: evCkpt, Job: id, Traj: traj, Next: next, Sim: sim}, false)
}

// AppendTerminal journals a job's terminal transition with its final
// status snapshot (fsynced).
func (s *Store) AppendTerminal(id string, state, errMsg string, status json.RawMessage) error {
	return s.append(&event{Type: evTerminal, Job: id, State: state, Err: errMsg, Status: status}, true)
}

// append journals one event and folds it into the in-memory state,
// compacting first when the journal has outgrown the threshold. The
// threshold check is skipped for window events: those are appended under
// the publishing job's mutex, where a synchronous multi-megabyte rewrite
// would stall the job's whole delivery path — checkpoint, submit and
// terminal appends (called without job locks) trigger it instead, and
// they dominate journal growth anyway.
func (s *Store) append(ev *event, sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.failed {
		return fmt.Errorf("store: journal failed by an earlier write error")
	}
	if s.fence != nil {
		if err := s.fence(ev.Job); err != nil {
			return fmt.Errorf("%w: %v", ErrFenced, err)
		}
	}
	if s.size >= s.opts.CompactBytes && ev.Type != evWindow {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	frame := appendFrame(nil, payload)
	wstart := time.Now()
	if _, err := s.f.Write(frame); err != nil {
		// A short or failed write may have left a partial frame after
		// offset s.size; replay would stop there and silently discard
		// every later (even fsynced) event. Roll the file back to the
		// last good frame — if that fails too, poison the store.
		if terr := s.f.Truncate(s.size); terr != nil {
			s.failed = true
		} else if _, serr := s.f.Seek(s.size, 0); serr != nil {
			s.failed = true
		}
		return fmt.Errorf("store: journal write: %w", err)
	}
	s.opts.Metrics.Append.Observe(time.Since(wstart))
	s.size += int64(len(frame))
	s.apply(ev)
	if sync {
		if d := s.opts.Chaos.Stall(chaos.FsyncStall); d > 0 {
			time.Sleep(d)
		}
		fstart := time.Now()
		err := s.f.Sync()
		s.opts.Metrics.Fsync.Observe(time.Since(fstart))
		return err
	}
	return nil
}

// Forget drops a job from the store at the next compaction — the serve
// registry evicted it, so its results no longer need to outlive anything.
func (s *Store) Forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.jobs[id]; ok {
		rec.forgotten = true
	}
}

// Compact rewrites the journal as a snapshot of the live state: one
// submit per job, its retained windows, its checkpoint ladders (running
// jobs only) and its terminal event; forgotten jobs are dropped.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmp := filepath.Join(s.dir, journalName+".compact")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("store: compaction: %w", err)
	}
	var buf []byte
	emit := func(ev *event) error {
		payload, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		buf = appendFrame(buf[:0], payload)
		_, err = f.Write(buf)
		return err
	}
	var size int64
	err = func() error {
		kept := s.order[:0]
		for _, id := range s.order {
			rec := s.jobs[id]
			if rec.forgotten {
				delete(s.jobs, id)
				continue
			}
			kept = append(kept, id)
			if err := emit(&event{Type: evSubmit, Job: id, At: rec.SubmittedAt.UnixNano(), Spec: rec.Spec, Tenant: rec.Tenant}); err != nil {
				return err
			}
			// Only the retained window tail survives compaction; a frontier
			// marker re-establishes the count of the evicted prefix so the
			// tail's original sequence numbers stay contiguous on replay.
			if rec.FirstRetained > 0 {
				if err := emit(&event{Type: evFrontier, Job: id, Seq: rec.FirstRetained}); err != nil {
					return err
				}
			}
			for i, w := range rec.Windows {
				ww := w
				if err := emit(&event{Type: evWindow, Job: id, Seq: rec.FirstRetained + i, Window: &ww}); err != nil {
					return err
				}
			}
			for traj, ladder := range rec.ckpts {
				for _, c := range ladder {
					if err := emit(&event{Type: evCkpt, Job: id, Traj: traj, Next: c.NextIdx, Sim: c.Sim}); err != nil {
						return err
					}
				}
			}
			if rec.Terminal != "" {
				if err := emit(&event{Type: evTerminal, Job: id, State: rec.Terminal, Err: rec.Error, Status: rec.Status}); err != nil {
					return err
				}
			}
		}
		s.order = kept
		if err := f.Sync(); err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			return err
		}
		size = st.Size()
		return f.Close()
	}()
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compaction: %w", err)
	}
	path := filepath.Join(s.dir, journalName)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compaction rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	nf, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("store: reopening compacted journal: %w", err)
	}
	if _, err := nf.Seek(size, 0); err != nil {
		nf.Close()
		return err
	}
	s.f.Close()
	s.f = nf
	s.size = size
	s.lastCompact = time.Now()
	return nil
}

// Stats reports the store's health for /healthz.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:            s.dir,
		JournalBytes:   s.size,
		Jobs:           len(s.jobs),
		LastCompaction: s.lastCompact,
		TruncatedBytes: s.truncated,
	}
}

// Sync fsyncs the journal.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.f.Sync()
}

// Close fsyncs and closes the journal. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
