// Package core assembles the CWC simulation-analysis pipeline — the
// paper's primary artifact (Fig. 2):
//
//	generation of simulation tasks
//	  → farm of simulation engines (on-demand scheduling, feedback
//	    rescheduling of incomplete tasks after every slice of quanta)
//	  → alignment of trajectories (samples → time cuts)
//	  → generation of sliding windows of trajectory cuts
//	  → farm of statistical engines (mean / variance / quantiles /
//	    k-means / period detection), gathered in order
//	  → display of results (user sink, e.g. CSV writer)
//
// The first two stages are the simulation stage, and only they change
// between deployments: Run opens a SimFarm of engines, RunGPU drives a
// simulated SIMT device, and the serve package keeps one shared SimFarm
// and sends slabs to remote workers, each of which runs a SimFarm too. The
// rest is one type, Analysis, with its StatFarm; all three drive it. Everything runs concurrently: statistics stream out while
// simulations are still running, which is the point of the paper's
// on-line design.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/window"
)

// SimulatorFactory builds the stochastic engine for one trajectory. It
// must return an independent simulator (private RNG seeded from seed).
type SimulatorFactory func(traj int, seed int64) (sim.Simulator, error)

// Config describes one simulation-analysis run.
type Config struct {
	// Factory creates per-trajectory simulators.
	Factory SimulatorFactory
	// Trajectories is the Monte Carlo ensemble size.
	Trajectories int
	// End is the simulated horizon.
	End float64
	// Quantum is the simulated time a task advances per scheduling step;
	// smaller quanta = finer load balancing and fresher on-line results.
	Quantum float64
	// Period is the sampling interval τ; samples at k·Period form cuts.
	Period float64

	// SimWorkers is the parallelism of the simulation farm.
	SimWorkers int
	// StatEngines is the parallelism of the statistics farm.
	StatEngines int

	// WindowSize and WindowStep configure the sliding windows of cuts fed
	// to the statistical engines (step == size gives exact, non-overlapping
	// cut coverage; step < size gives smoother period estimates).
	WindowSize int
	WindowStep int

	// Species selects the observable indices to analyse (nil = all).
	Species []int
	// KMeansK, when > 0, clusters the trajectory ensemble of each
	// window's last cut into K groups.
	KMeansK int
	// PeriodHalfWin is the smoothing half-window (in cuts) of the peak
	// detector used for period estimation; 0 disables period analysis.
	PeriodHalfWin int

	// BaseSeed derives per-trajectory seeds (seed = BaseSeed + traj).
	BaseSeed int64

	// RawSink, when non-nil, receives every raw sample as it leaves the
	// simulation farm (the paper's "raw simulation results" tap feeding
	// permanent storage), before alignment. It is called sequentially.
	// The sample's State is backed by a pooled batch arena and is only
	// valid for the duration of the call: copy it to retain it.
	RawSink func(sim.Sample) error
}

// Normalized validates the configuration and returns a copy with every
// default filled in, without running anything. It is the entry point for
// callers outside this package (e.g. the job service) that need the
// effective Quantum/WindowSize/... of a run before driving the stages
// themselves.
func (c Config) Normalized() (Config, error) { return c.withDefaults() }

// withDefaults validates the configuration and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Factory == nil {
		return c, errors.New("core: nil simulator factory")
	}
	if c.Trajectories < 1 {
		return c, fmt.Errorf("core: need at least 1 trajectory, got %d", c.Trajectories)
	}
	if c.End <= 0 || c.Period <= 0 {
		return c, fmt.Errorf("core: End and Period must be positive (got %g, %g)", c.End, c.Period)
	}
	if c.Quantum <= 0 {
		c.Quantum = c.Period
	}
	if c.SimWorkers < 1 {
		c.SimWorkers = 1
	}
	if c.StatEngines < 1 {
		c.StatEngines = 1
	}
	if c.WindowSize < 1 {
		c.WindowSize = 16
	}
	if c.WindowStep < 1 || c.WindowStep > c.WindowSize {
		c.WindowStep = c.WindowSize
	}
	return c, nil
}

// WindowStat is the output of one statistical engine for one window: the
// "filtered simulation results" streamed to the display stage.
type WindowStat struct {
	// Start is the index of the window's first cut.
	Start int
	// TimeLo and TimeHi are the window's time extent.
	TimeLo, TimeHi float64
	// NumCuts is the number of cuts summarised (< WindowSize only for the
	// trailing window).
	NumCuts int
	// Species lists the analysed observable indices, in the order used by
	// PerCut and Period.
	Species []int
	// PerCut[k][s] are the ensemble moments (across trajectories) of
	// species Species[s] at the window's k-th cut.
	PerCut [][]stats.Moments
	// Median[k][s] is the ensemble median matching PerCut.
	Median [][]float64
	// Period[s] aggregates per-trajectory oscillation-period estimates of
	// species Species[s] over this window (N = trajectories with a
	// detectable period). Empty when period analysis is disabled.
	Period []stats.Moments
	// KMeans clusters trajectories by their analysed-species vector at
	// the window's last cut (nil when disabled).
	KMeans *stats.KMeansResult
}

// RunInfo summarises a completed run.
type RunInfo struct {
	Trajectories int
	Cuts         int
	Windows      int
	Samples      int64
	Reactions    uint64
	DeadTasks    int
}

// Run executes the full pipeline on shared memory, invoking display for
// every WindowStat in window order. It returns when every window has been
// analysed and displayed. display is called sequentially, from the
// engines of the run's stat farm.
func Run(ctx context.Context, cfg Config, display func(WindowStat) error) (RunInfo, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return RunInfo{}, err
	}
	species, err := resolveSpecies(cfg)
	if err != nil {
		return RunInfo{Trajectories: cfg.Trajectories}, err
	}

	run := &runSlabs{cfg: cfg, left: cfg.Trajectories, done: make(chan struct{})}
	info, err := analyse(ctx, cfg, species, display, run.feed)
	if err != nil {
		return info, err
	}
	info.Samples, info.Reactions, info.DeadTasks = run.samples, run.reactions, run.dead
	return info, nil
}

// runSlabs is the SlabOwner of one Run: its Deliver is the run's raw
// sample tap and the windower of its Analysis. The counters and err are
// the collector's, read once done is closed or the farm is.
type runSlabs struct {
	cfg       Config
	push      func(*sim.Batch) error
	left      int // trajectories not yet done
	samples   int64
	reactions uint64
	dead      int
	err       error
	done      chan struct{} // closed when left reaches 0 or Deliver fails
}

// feed is the simulation stage of one Run: a SimFarm of cfg.SimWorkers
// engines, opened here and closed on every return path, runs every
// trajectory to its end in window-long slices, breadth-first.
func (r *runSlabs) feed(ctx context.Context, push func(*sim.Batch) error) error {
	r.push = push
	farm := NewSimFarm(r.cfg.SimWorkers, 1, nil, SliceBudget{})
	defer farm.Close()
	for i := 0; i < r.cfg.Trajectories; i++ {
		task, err := NewTrajectoryTask(r.cfg, i)
		if err != nil {
			return err
		}
		farm.Inject(SimSlab{Owner: r, Task: task, Window: r.cfg.WindowSize})
	}
	select {
	case <-r.done:
		return r.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Admit runs every slice: a Run ends only by returning.
func (r *runSlabs) Admit(*SimSlab, *Slice) bool { return true }

// AfterSlice leaves every slab to run to its trajectory's end.
func (r *runSlabs) AfterSlice(*SimSlab, *Slice) {}

// Deliver taps the slice's raw samples, pushes them into the Analysis and
// counts finished trajectories.
func (r *runSlabs) Deliver(sl Slice) error {
	if sl.Err != nil {
		return r.fail(sl.Err)
	}
	if b := sl.Batch; b != nil {
		r.samples += int64(len(b.Samples))
		if r.cfg.RawSink != nil {
			for _, s := range b.Samples {
				if err := r.cfg.RawSink(s); err != nil {
					b.Release()
					return r.fail(err)
				}
			}
		}
		if err := r.push(b); err != nil {
			return r.fail(err)
		}
	}
	if sl.TaskDone {
		r.reactions += sl.Steps
		if sl.Dead {
			r.dead++
		}
		if r.left--; r.left == 0 {
			close(r.done)
		}
	}
	return nil
}

// fail ends the run at its first error; the farm stops with Deliver's.
func (r *runSlabs) fail(err error) error {
	r.err = err
	close(r.done)
	return err
}

// analyse runs the Analysis of one Run or RunGPU: feed pushes the run's
// sample batches on the calling goroutine, the Analysis's windower; a stat
// farm of cfg.StatEngines engines, opened here and closed on every return
// path, analyses the windows; display sees them in window order. The
// first error — feed's, an engine's, display's or ctx's — ends the run.
func analyse(ctx context.Context, cfg Config, species []int, display func(WindowStat) error, feed func(ctx context.Context, push func(*sim.Batch) error) error) (RunInfo, error) {
	info := RunInfo{Trajectories: cfg.Trajectories}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	farm := NewStatFarm(cfg.StatEngines, cfg.StatEngines)
	p := &runPublisher{ctx: runCtx, cancel: cancel, display: display, done: make(chan struct{})}
	an, err := NewAnalysis(runCtx, cfg, species, farm, make(chan struct{}, 2*cfg.StatEngines), p, 0)
	if err != nil {
		farm.Close()
		return info, err
	}
	p.an = an // before the first window reaches an engine

	if err := feed(runCtx, an.Push); err != nil {
		p.fail(err)
	} else if done, err := an.Close(&p.mu); err != nil {
		p.fail(err)
	} else if done {
		close(p.done)
	}
	select {
	case <-p.done:
	case <-runCtx.Done():
	}
	cancel()
	farm.Close() // every engine has returned: p is ours
	if p.err != nil {
		return info, p.err
	}
	if err := ctx.Err(); err != nil {
		return info, err
	}
	info.Cuts = an.Cuts()
	info.Windows = p.windows
	return info, nil
}

// runPublisher is the Publisher of Run and RunGPU: it displays each window
// in order under mu and ends the run at the first error.
type runPublisher struct {
	mu      sync.Mutex
	an      *Analysis
	ctx     context.Context
	cancel  context.CancelFunc
	display func(WindowStat) error
	windows int
	err     error         // first error of the run
	done    chan struct{} // closed once every window is displayed
}

func (p *runPublisher) Analysing() bool { return p.ctx.Err() == nil }

func (p *runPublisher) Analysed(seq, fresh int, ws WindowStat, lat time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.failLocked(err)
		return
	}
	if p.ctx.Err() != nil {
		return
	}
	if p.an.Reorder(seq, fresh, ws, lat) {
		close(p.done)
	}
}

func (p *runPublisher) PublishLocked(ws WindowStat, _, _ time.Duration) {
	if p.ctx.Err() != nil {
		return
	}
	if p.display != nil {
		if err := p.display(ws); err != nil {
			p.failLocked(err)
			return
		}
	}
	p.windows++
}

func (p *runPublisher) fail(err error) {
	p.mu.Lock()
	p.failLocked(err)
	p.mu.Unlock()
}

func (p *runPublisher) failLocked(err error) {
	if p.err == nil {
		p.err = err
		p.cancel()
	}
}

// ResolveSpecies validates cfg.Species against a probe simulator built
// from the factory, defaulting to all observables when none are selected.
// Exported for callers that build an Analysis or call AnalyseWindowInto
// themselves.
func ResolveSpecies(cfg Config) ([]int, error) { return resolveSpecies(cfg) }

// NewTrajectoryTask builds trajectory traj's simulator and task exactly as
// the pipeline's generation stage does (per-trajectory seed = BaseSeed +
// traj), so out-of-band schedulers (the job service) produce the same
// ensemble as a batch Run of the same Config.
func NewTrajectoryTask(cfg Config, traj int) (*sim.Task, error) {
	s, err := cfg.Factory(traj, cfg.BaseSeed+int64(traj))
	if err != nil {
		return nil, fmt.Errorf("core: building simulator %d: %w", traj, err)
	}
	return sim.NewTask(traj, s, cfg.End, cfg.Quantum, cfg.Period)
}

// resolveSpecies validates cfg.Species against a probe simulator, or
// defaults to all observables.
func resolveSpecies(cfg Config) ([]int, error) {
	probe, err := cfg.Factory(0, cfg.BaseSeed)
	if err != nil {
		return nil, fmt.Errorf("core: probing factory: %w", err)
	}
	species := cfg.Species
	if len(species) == 0 {
		species = make([]int, probe.NumSpecies())
		for i := range species {
			species[i] = i
		}
	}
	for _, s := range species {
		if s < 0 || s >= probe.NumSpecies() {
			return nil, fmt.Errorf("core: species index %d out of range (model has %d)", s, probe.NumSpecies())
		}
	}
	return species, nil
}

// AnalyseWindowInto summarises one window of trajectory cuts into ws,
// reusing both ws's slices and eng's scratch buffers: with a warmed engine
// and a reused WindowStat of stable shape it performs zero allocations per
// window. ws is fully overwritten (no field survives from a previous
// window). The caller owns ws; eng must not be shared between concurrent
// calls. Deterministic: the same window, species and config produce the
// identical WindowStat on any engine, which is what lets a farm of these
// run windows out of order and reassemble results by sequence number.
//
// It is AnalyseWindowFresh with every cut fresh.
func AnalyseWindowInto(ws *WindowStat, eng *stats.Engine, w window.Window, species []int, cfg Config) error {
	return AnalyseWindowFresh(ws, eng, w, species, cfg, len(w.Cuts))
}

// AnalyseWindowFresh is AnalyseWindowInto for a stream of overlapping
// windows: it summarises only the window's trailing fresh cuts (see
// CutFrontier) and leaves the PerCut and Median rows of the older ones
// sized but unset, for an Assembler to fill from the windows that did
// summarise them. Everything that is a function of the whole window —
// header, period detection, k-means — is computed as in the full form, so
// assembling the result yields exactly what AnalyseWindowInto returns.
// The same reuse and determinism contract holds, 0 allocations included.
func AnalyseWindowFresh(ws *WindowStat, eng *stats.Engine, w window.Window, species []int, cfg Config, fresh int) error {
	ws.Start = w.Start
	ws.NumCuts = len(w.Cuts)
	ws.Species = species
	if len(w.Cuts) == 0 {
		ws.PerCut = ws.PerCut[:0]
		ws.Median = ws.Median[:0]
		ws.Period = nil
		ws.KMeans = nil
		return window.ErrNoCuts
	}
	if fresh < 0 || fresh > len(w.Cuts) {
		return fmt.Errorf("core: %d fresh cuts in a window of %d", fresh, len(w.Cuts))
	}
	ws.TimeLo = w.Cuts[0].Time
	ws.TimeHi = w.Cuts[len(w.Cuts)-1].Time
	nTraj := w.Cuts[0].NumTrajectories()

	ws.PerCut = growOuter(ws.PerCut, len(w.Cuts))
	ws.Median = growOuter(ws.Median, len(w.Cuts))
	for k, c := range w.Cuts {
		ws.PerCut[k] = growRow(ws.PerCut[k], len(species))
		ws.Median[k] = growRow(ws.Median[k], len(species))
		if k < len(w.Cuts)-fresh {
			continue
		}
		if err := summariseCut(ws.PerCut[k], ws.Median[k], eng, c, species); err != nil {
			return err
		}
	}

	if cfg.PeriodHalfWin > 0 && len(w.Cuts) >= 2 {
		// Period detection walks one trajectory across every cut, so only
		// here must the window be rectangular. Aligner-built windows are
		// rectangular by construction; a ragged caller-built window must
		// surface as an error, not as an index panic inside an engine
		// goroutine.
		for k, c := range w.Cuts {
			if c.NumTrajectories() != nTraj {
				return fmt.Errorf("core: window cut %d holds %d trajectories, want %d", k, c.NumTrajectories(), nTraj)
			}
		}
		dt := w.Cuts[1].Time - w.Cuts[0].Time
		ws.Period = growRow(ws.Period, len(species))
		for si, sp := range species {
			var acc stats.Welford
			for traj := 0; traj < nTraj; traj++ {
				trace := eng.Floats(len(w.Cuts))
				for _, c := range w.Cuts {
					trace = append(trace, float64(c.States[traj][sp]))
				}
				if p, ok := eng.Period(trace, dt, cfg.PeriodHalfWin); ok {
					acc.Add(p)
				}
			}
			ws.Period[si] = acc.Snapshot()
		}
	} else {
		ws.Period = nil
	}

	if cfg.KMeansK > 0 {
		last := w.Cuts[len(w.Cuts)-1]
		dim := len(species)
		pts := eng.Points(len(last.States), dim)
		for i, st := range last.States {
			row := pts[i*dim : (i+1)*dim]
			for si, sp := range species {
				row[si] = float64(st[sp])
			}
		}
		if ws.KMeans == nil {
			ws.KMeans = &stats.KMeansResult{}
		}
		if err := eng.KMeansFlat(ws.KMeans, pts, len(last.States), dim, cfg.KMeansK, cfg.BaseSeed+int64(w.Start), 100); err != nil {
			return err
		}
	} else {
		ws.KMeans = nil
	}
	return nil
}

// summariseCut computes the per-cut part of a WindowStat — for each
// analysed species, the moments and the median across the ensemble — into
// the cut's PerCut and Median rows. It is a pure function of the one cut,
// which is why overlapping windows can share its result.
func summariseCut(moments []stats.Moments, median []float64, eng *stats.Engine, c window.Cut, species []int) error {
	for si, sp := range species {
		var acc stats.Welford
		scratch := eng.Floats(len(c.States))
		for _, st := range c.States {
			v := float64(st[sp])
			acc.Add(v)
			scratch = append(scratch, v)
		}
		moments[si] = acc.Snapshot()
		med, err := stats.QuantileInPlace(scratch, 0.5)
		if err != nil {
			return err
		}
		median[si] = med
	}
	return nil
}

// growOuter resizes an outer slice to n entries, reusing its backing (and
// therefore the per-entry inner slices) when capacity allows.
func growOuter[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// growRow resizes an inner slice to n entries, reusing its backing when
// capacity allows. Entries are fully overwritten by the caller.
func growRow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
