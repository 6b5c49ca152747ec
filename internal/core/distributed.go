package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cwcflow/internal/cwc"
	"cwcflow/internal/dff"
	"cwcflow/internal/gillespie"
	"cwcflow/internal/models"
	"cwcflow/internal/obs"
	"cwcflow/internal/sim"
)

// The distributed CWC simulator (paper §IV-B): the simulation pipeline
// becomes a farm of simulation pipelines spread over hosts. A master (the
// job service's slab scheduler, which cwc-dist master also drives) streams
// slabs to sim-worker processes over typed dff channels; each worker runs a
// local farm of simulation engines and streams samples back; the master
// merges the sample streams into the usual alignment → windows →
// statistics pipeline. Moving a stage across the process boundary changes
// only the (de)serialising endpoints — the user code of every stage is
// byte-for-byte the one the shared-memory version runs, which is the
// paper's porting claim. This file holds the worker side and the wire
// types both sides share.

// ModelRef names a model that sim workers can rebuild locally. Only the
// reference crosses the wire, never live simulator state.
type ModelRef struct {
	// Name selects the model: "neurospora", "neurospora-nrm",
	// "neurospora-cwc", "lotka-volterra", "sir", "schlogl", "enzyme".
	Name string
	// Omega is the system size for models that take one.
	Omega float64
}

// FactoryFor resolves a model reference to a simulator factory.
func FactoryFor(ref ModelRef) (SimulatorFactory, error) {
	omega := ref.Omega
	if omega <= 0 {
		omega = 100
	}
	switch ref.Name {
	case "neurospora":
		sys := models.Neurospora(omega)
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewDirect(sys, seed)
		}, nil
	case "neurospora-nrm":
		sys := models.Neurospora(omega)
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewNextReaction(sys, seed)
		}, nil
	case "neurospora-cwc":
		model := models.NeurosporaCWC(omega)
		return func(_ int, seed int64) (sim.Simulator, error) {
			return cwc.NewEngine(model, seed)
		}, nil
	case "lotka-volterra":
		sys := models.LotkaVolterra()
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewDirect(sys, seed)
		}, nil
	case "sir":
		sys := models.SIR(1000, 10, 0.4, 0.1)
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewDirect(sys, seed)
		}, nil
	case "schlogl":
		sys := models.Schlogl()
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewDirect(sys, seed)
		}, nil
	case "enzyme":
		sys := models.Enzyme(50, 500)
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewDirect(sys, seed)
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown model %q", ref.Name)
	}
}

// JobHeader opens a distributed job: everything a sim worker needs to
// build and run slabs of its trajectories.
type JobHeader struct {
	Model    ModelRef
	End      float64
	Quantum  float64
	Period   float64
	BaseSeed int64
	// Slab is the most samples one ResultMsg carries (one window of cuts,
	// usually): a slab longer than this streams home in messages that end
	// at multiples of Slab, the trajectory re-entering the worker's
	// feedback queue in between so its siblings advance breadth-first.
	// Values below 1 mean 1.
	Slab int
	// TraceID, when non-empty, is the master job's trace id: the worker
	// records its per-job spans under it and ships them home in the
	// trailer (WorkerTrailer.Spans). Empty disables worker-side tracing.
	TraceID string
}

// WorkerMsg is the master→worker stream: a header first, then one message
// per slab — the stateless unit of remote work. A slab is the pure function
// (trajectory, engine snapshot, until) → (samples, engine snapshot): the
// worker keeps nothing between slabs, so consecutive slabs of one
// trajectory may run on different workers (or the master's local pool) and
// a lost worker costs only the slabs it held.
type WorkerMsg struct {
	Header *JobHeader
	Traj   int
	// Snap is the sim.Task snapshot the slab resumes from; nil builds the
	// trajectory from its seed (BaseSeed + Traj).
	Snap []byte
	// Until is the sample index the slab stops at (first index NOT
	// simulated, modulo an SSA step that crosses it). Zero — and any slab
	// over an engine that cannot snapshot — runs to the trajectory's end.
	Until int
}

// WorkerTrailer closes the worker→master stream with per-worker totals.
type WorkerTrailer struct {
	Reactions uint64 // SSA steps executed on this worker
	DeadTasks int
	Tasks     int // trajectories that finished on this worker
	// Spans are the worker's spans for this job (recorded only when the
	// header carried a TraceID); the master merges them into the owning
	// job's trace so a cross-process job reads as one timeline.
	Spans []obs.Span
}

// ResultMsg is the worker→master stream: one message per slab (or per
// JobHeader.Slab samples of a longer one), carrying that stretch's
// contiguous samples for one trajectory in a single gob message and a
// single write. Start is the index of the first sample, which is all a
// master needs to deduplicate: a message extends the trajectory iff it
// starts at (or, for a replay from the seed, before) the frontier. A slab
// that stopped at its Until ends with Snap, the engine snapshot the next
// slab resumes from; one that finished the trajectory ends with TaskDone.
// A trailer with per-worker totals ends the stream.
type ResultMsg struct {
	Traj    int
	Start   int
	Samples []sim.Sample
	Snap    []byte
	// TaskDone marks the trajectory complete; Dead and Steps (the
	// trajectory's cumulative SSA step count) qualify it.
	TaskDone bool
	Dead     bool
	Steps    uint64
	// Quanta is the number of simulation quanta behind this message and
	// ElapsedNs their total worker-measured service time — what feeds the
	// master's per-quantum instruments and ETA model.
	Quanta    int
	ElapsedNs int64
	Trailer   *WorkerTrailer
}

// ModelResolver maps a model reference to a simulator factory. Workers
// default to FactoryFor; tests inject synthetic deterministic models.
type ModelResolver func(ModelRef) (SimulatorFactory, error)

// WorkerMetrics are the worker-process observability hooks: every field
// is optional (nil = no-op), so an unconfigured worker pays a single nil
// check per use.
type WorkerMetrics struct {
	// Quantum observes the service time of each simulation quantum (the
	// per-slab mean, once per quantum of the slab).
	Quantum *obs.Histogram
	// Tasks counts trajectories that finished on this worker.
	Tasks *obs.Counter
	// Jobs gauges the job streams currently being served.
	Jobs *obs.Gauge
}

// SimWorkerOptions configures a sim-worker server (ServeSimWorkerOpts).
type SimWorkerOptions struct {
	// SimWorkers is the local simulation farm width (the host's cores).
	SimWorkers int
	// MaxJobs caps concurrently served job connections (0 = unlimited).
	MaxJobs int
	// Resolver maps model references to factories (nil = FactoryFor).
	Resolver ModelResolver
	// OnError receives per-connection failures (nil = dropped).
	OnError func(error)
	// Origin identifies this worker in the spans it records (its
	// advertised address, typically); empty spans carry no origin.
	Origin string
	// Metrics are the worker's observability hooks (zero value = no-op).
	Metrics WorkerMetrics
}

// ServeSimWorkerOpts runs a sim-worker server on l: each connection carries
// one job (header + slabs in, sample messages + trailer out). At most
// opts.MaxJobs job connections are served at once; an excess connection is
// refused immediately, which a master treats like any worker failure. The
// call blocks until ctx is cancelled.
func ServeSimWorkerOpts(ctx context.Context, l net.Listener, opts SimWorkerOptions) error {
	if opts.Resolver == nil {
		opts.Resolver = FactoryFor
	}
	var active atomic.Int64
	return dff.Serve(ctx, l, func(ctx context.Context, conn net.Conn) error {
		if opts.MaxJobs > 0 {
			if n := active.Add(1); n > int64(opts.MaxJobs) {
				active.Add(-1)
				return fmt.Errorf("core: sim worker at its job cap (%d), refusing connection", opts.MaxJobs)
			}
			defer active.Add(-1)
		}
		return handleJob(ctx, conn, opts)
	}, opts.OnError)
}

func handleJob(ctx context.Context, conn net.Conn, opts SimWorkerOptions) error {
	// A stopped server ends its jobs: the closed stream ends every read.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	in := dff.NewReader[WorkerMsg](conn)
	first, ok, err := in.Recv()
	if err != nil {
		return err
	}
	if !ok || first.Header == nil {
		return errors.New("core: job stream did not start with a header")
	}
	hdr := *first.Header
	factory, err := opts.Resolver(hdr.Model)
	if err != nil {
		return err
	}
	opts.Metrics.Jobs.Inc()
	defer opts.Metrics.Jobs.Dec()
	streamStart := time.Now()

	// The worker-side structure is the same simulation farm as the
	// shared-memory version; only the endpoints differ (dff streams
	// instead of channels) and a slice is one message's worth of samples.
	// A slab no longer than hdr.Slab never feeds back: the farm is then a
	// plain farm of pure functions.
	w := &workerSlabs{
		cfg:     Config{Factory: factory, End: hdr.End, Quantum: hdr.Quantum, Period: hdr.Period, BaseSeed: hdr.BaseSeed},
		out:     dff.NewWriter[ResultMsg](conn),
		metrics: opts.Metrics,
		spares:  make(chan *sim.Task, max(opts.SimWorkers, 1)),
		idle:    make(chan struct{}),
		failed:  make(chan struct{}),
	}
	farm := NewSimFarm(opts.SimWorkers, 1, nil, SliceBudget{})
	defer farm.Close()
	for {
		msg, ok, err := in.Recv()
		if err != nil {
			return err
		}
		select {
		case <-w.failed:
			return w.err
		default:
		}
		if !ok {
			break
		}
		if msg.Header != nil {
			return errors.New("core: duplicate job header")
		}
		// A snapshot restores into the engine of a slab that left the
		// farm instead of building one.
		var spare *sim.Task
		if msg.Snap != nil {
			select {
			case spare = <-w.spares:
			default:
			}
		}
		task, err := BuildTask(w.cfg, msg.Traj, msg.Snap, spare)
		if err != nil {
			return err
		}
		w.settle(1, false)
		farm.Inject(SimSlab{Owner: w, Task: task, Until: msg.Until, Window: max(hdr.Slab, 1)})
	}
	w.settle(0, true)
	select {
	case <-w.idle:
	case <-w.failed:
		return w.err
	}
	trailer := WorkerTrailer{Reactions: w.reactions, DeadTasks: w.dead, Tasks: w.tasks}
	if hdr.TraceID != "" {
		// One lifecycle span per worker stream, not per slab: it rides the
		// trailer home and merges into the owning job's trace.
		trailer.Spans = []obs.Span{{
			Trace:  hdr.TraceID,
			Name:   "worker-stream",
			Origin: opts.Origin,
			Start:  streamStart.UnixNano(),
			End:    time.Now().UnixNano(),
			Detail: fmt.Sprintf("tasks=%d reactions=%d", trailer.Tasks, trailer.Reactions),
		}}
	}
	if err := w.out.Send(ResultMsg{Trailer: &trailer}); err != nil {
		return err
	}
	return w.out.Close()
}

// workerSlabs is the SlabOwner of one worker job connection: every slice
// becomes one ResultMsg, and a slab that stops at its Until ends with the
// engine snapshot the next slab resumes from. The trailer counts are the
// collector's, read once idle is closed.
type workerSlabs struct {
	cfg     Config
	out     *dff.Writer[ResultMsg]
	metrics WorkerMetrics
	// spares holds tasks whose slabs have left the farm, engines included,
	// for the next snapshot-carrying slab to restore into: one per farm
	// worker, the most slabs that run at once.
	spares chan *sim.Task

	reactions uint64
	dead      int
	tasks     int

	mu     sync.Mutex
	open   int           // slabs in the farm
	eof    bool          // the master sent its last slab
	idle   chan struct{} // closed once eof and no slab is left
	failed chan struct{} // closed with err by the first failed Deliver
	err    error
}

// settle counts delta more slabs in the farm, notes the end of the slab
// stream, and closes idle once that has come and no slab is left.
func (w *workerSlabs) settle(delta int, eof bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.open += delta
	w.eof = w.eof || eof
	if w.eof && w.open == 0 {
		close(w.idle)
	}
}

// Admit runs every slice: the master cancels a job by closing the stream.
func (w *workerSlabs) Admit(*SimSlab, *Slice) bool { return true }

// AfterSlice observes the slice's quanta and, at the slab's Until,
// snapshots the engine for the next slab, which may run anywhere. An
// engine that cannot snapshot keeps the trajectory here to its end. A task
// whose slab is over becomes a spare.
func (w *workerSlabs) AfterSlice(s *SimSlab, sl *Slice) {
	if sl.Quanta > 0 {
		w.metrics.Quantum.ObserveN(sl.Elapsed/time.Duration(sl.Quanta), sl.Quanta)
	}
	if sl.TaskDone {
		w.metrics.Tasks.Inc()
	} else if sl.SlabEnd {
		snap, ok, err := s.Task.Snapshot()
		switch {
		case err != nil:
			sl.Err = err
			return
		case !ok:
			s.Until, sl.SlabEnd = 0, false
			return
		}
		sl.Snap = snap
	}
	if sl.SlabEnd {
		select {
		case w.spares <- s.Task:
		default:
		}
	}
}

// Deliver sends the slice home as one ResultMsg; gob copies the samples
// during Encode, so the batch recycles the moment Send returns.
func (w *workerSlabs) Deliver(sl Slice) error {
	if sl.Err != nil {
		return w.fail(sl.Err)
	}
	msg := ResultMsg{
		Traj: sl.Traj, Start: sl.Start, Snap: sl.Snap,
		TaskDone: sl.TaskDone, Dead: sl.Dead, Steps: sl.Steps,
		Quanta: sl.Quanta, ElapsedNs: int64(sl.Elapsed),
	}
	if sl.Batch != nil {
		msg.Samples = sl.Batch.Samples
	}
	err := w.out.Send(msg)
	if sl.Batch != nil {
		sl.Batch.Release()
	}
	if err != nil {
		return w.fail(err)
	}
	w.reactions += sl.Fired
	if sl.TaskDone {
		w.tasks++
		if sl.Dead {
			w.dead++
		}
	}
	if sl.SlabEnd {
		w.settle(-1, false)
	}
	return nil
}

// fail ends the connection at its first error; the farm stops with
// Deliver's.
func (w *workerSlabs) fail(err error) error {
	w.err = err
	close(w.failed)
	return err
}
