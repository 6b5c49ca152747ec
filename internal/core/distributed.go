package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cwcflow/internal/cwc"
	"cwcflow/internal/dff"
	"cwcflow/internal/ff"
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
	// usually): a slab longer than this streams home in Slab-sized
	// messages, the trajectory re-entering the worker's feedback queue in
	// between so its siblings advance breadth-first. Values below 1 mean 1.
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

// slab is one WorkerMsg riding the worker's farm. task is bound on the
// slab's first visit to a farm worker and travels with it through the
// feedback queue until the slab's last message is out.
type slab struct {
	traj  int
	snap  []byte
	until int
	task  *sim.Task
}

// slabResult is one stretch of a slab inside the worker process, on its way
// from the farm to the connection's collector (which serialises it as a
// ResultMsg and recycles the batch).
type slabResult struct {
	msg   ResultMsg
	batch *sim.Batch
}

func handleJob(ctx context.Context, conn net.Conn, opts SimWorkerOptions) error {
	in := dff.NewReader[WorkerMsg](conn)
	out := dff.NewWriter[ResultMsg](conn)

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

	var reactions atomic.Uint64
	var deadTasks atomic.Int64
	var tasks atomic.Int64

	// The worker-side structure is the same simulation farm as the
	// shared-memory version; only the endpoints differ (dff streams
	// instead of channels) and the feedback unit is a message's worth of
	// samples instead of a quantum. A slab no longer than hdr.Slab never
	// feeds back: the farm is then a plain farm of pure functions.
	source := ff.Source[*slab](func(ctx context.Context, emit ff.Emit[*slab]) error {
		for {
			msg, ok, err := in.Recv()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if msg.Header != nil {
				return errors.New("core: duplicate job header")
			}
			if err := emit(&slab{traj: msg.Traj, snap: msg.Snap, until: msg.Until}); err != nil {
				return err
			}
		}
	})
	farm := ff.NewFarmFeedback(opts.SimWorkers, func(int) ff.FeedbackWorker[*slab, slabResult] {
		var fb *slab // per-worker feedback cell, read before the next DoStep
		// spare is the task (engine included) the last slab left behind:
		// the next snapshot-carrying slab restores into it instead of
		// building an engine.
		var spare *sim.Task
		return ff.FeedbackWorkerFunc[*slab, slabResult](func(_ context.Context, s *slab, emit ff.Emit[slabResult]) (**slab, error) {
			if s.task == nil {
				if s.snap != nil && spare != nil {
					s.task, spare = spare, nil
					s.task.Traj = s.traj
				} else {
					eng, err := factory(s.traj, hdr.BaseSeed+int64(s.traj))
					if err != nil {
						return nil, err
					}
					if s.task, err = sim.NewTask(s.traj, eng, hdr.End, hdr.Quantum, hdr.Period); err != nil {
						return nil, err
					}
				}
				if s.snap != nil {
					if err := s.task.Restore(s.snap); err != nil {
						return nil, fmt.Errorf("core: trajectory %d: %w", s.traj, err)
					}
					s.snap = nil
				}
				if s.until <= 0 || s.until > s.task.NumSamples() {
					s.until = s.task.NumSamples()
				}
			}
			t := s.task
			r := slabResult{msg: ResultMsg{Traj: s.traj, Start: t.NextIndex()}, batch: sim.GetBatch()}
			stop := min(s.until, t.NextIndex()+max(hdr.Slab, 1))
			stepsBefore := t.Steps()
			begin := time.Now()
			for !t.Done() && t.NextIndex() < stop {
				if err := t.RunQuantumBatch(r.batch); err != nil {
					r.batch.Release()
					return nil, err
				}
				r.msg.Quanta++
			}
			elapsed := time.Since(begin)
			r.msg.ElapsedNs = int64(elapsed)
			if r.msg.Quanta > 0 {
				opts.Metrics.Quantum.ObserveN(elapsed/time.Duration(r.msg.Quanta), r.msg.Quanta)
			}
			reactions.Add(t.Steps() - stepsBefore)
			switch {
			case t.Done():
				r.msg.TaskDone, r.msg.Dead, r.msg.Steps = true, t.Dead(), t.Steps()
				tasks.Add(1)
				opts.Metrics.Tasks.Inc()
				if t.Dead() {
					deadTasks.Add(1)
				}
			case t.NextIndex() >= s.until:
				snap, ok, err := t.Snapshot()
				if err != nil {
					r.batch.Release()
					return nil, err
				}
				if !ok {
					// The engine cannot hand its state back: the
					// trajectory stays here to its end.
					s.until = t.NumSamples()
				}
				r.msg.Snap = snap
			}
			if err := emit(r); err != nil {
				return nil, err
			}
			if r.msg.TaskDone || r.msg.Snap != nil {
				spare, s.task = t, nil
				return nil, nil
			}
			fb = s
			return &fb, nil
		})
	})
	err = ff.Run(ctx, source, ff.Node[*slab, slabResult](farm), func(r slabResult) error {
		// The samples alias the batch arena; gob copies them during Encode,
		// so the batch recycles the moment Send returns.
		r.msg.Samples = r.batch.Samples
		err := out.Send(r.msg)
		r.batch.Release()
		return err
	})
	if err != nil {
		return err
	}
	trailer := WorkerTrailer{
		Reactions: reactions.Load(),
		DeadTasks: int(deadTasks.Load()),
		Tasks:     int(tasks.Load()),
	}
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
	if err := out.Send(ResultMsg{Trailer: &trailer}); err != nil {
		return err
	}
	return out.Close()
}
