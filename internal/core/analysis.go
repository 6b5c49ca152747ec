package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/window"
)

// A Publisher is what an Analysis reports to: the display of Run and
// RunGPU, or a job of the serve package. Its methods are called from stat
// farm engines.
type Publisher interface {
	// Analysing is asked before an engine analyses one of the run's
	// windows; false drops the window because the run has ended.
	Analysing() bool
	// Analysed hands back one analysed window, in completion order, with
	// its sequence number, its fresh-cut count and the time its analysis
	// took, or the error that analysing it failed with. On success the
	// publisher takes the lock that guards the Analysis's reorder half and
	// passes the window on to Reorder.
	Analysed(seq, fresh int, ws WindowStat, lat time.Duration, err error)
	// PublishLocked receives each complete window in window order, from
	// Reorder, with its analysis time and how long it waited in the
	// reorder buffer for the windows before it.
	PublishLocked(ws WindowStat, lat, wait time.Duration)
}

// Analysis is the per-run half of Fig. 2 that follows the simulation
// stage: alignment of trajectories → sliding windows → farm of
// statistical engines → in-order display. Run, RunGPU and every job of the
// serve package drive one; they differ only in where the sample batches
// come from and where the windows go.
//
// The windower half — Push and Close — runs on one goroutine. It aligns
// samples into cuts and cuts into windows (window.Stream), learns from the
// CutFrontier how many trailing cuts of each window no earlier window
// covered, and hands each window, copied and numbered, to the StatFarm.
// The reorder half — Reorder — runs under the publisher's lock. It files
// the engines' results by sequence number, completes each window in order
// with the cut summaries of the windows before it (Assembler) and hands it
// to the Publisher.
type Analysis struct {
	ctx     context.Context
	cfg     Config
	species []int
	farm    *StatFarm
	pub     Publisher
	// slots caps the run's windows in flight on the farm: the windower
	// takes a slot before it submits one, the engine frees it.
	slots chan struct{}

	// Windower half.
	stream   *window.Stream
	frontier CutFrontier
	seq      int                       // sequence number of the next window
	emit     func(window.Window) error // a.submit, bound once

	// Reorder half, under the publisher's lock.
	pending map[int]pendingStat
	next    int // next window to publish
	end     int // windows in the run once the windower closed, -1 before
	asm     *Assembler
}

// pendingStat is one analysed window parked in the reorder buffer until
// every earlier window has been published, with the fresh count it was
// analysed with (what the Assembler completes it by). at stamps its
// arrival for the reorder wait.
type pendingStat struct {
	ws    WindowStat
	fresh int
	lat   time.Duration
	at    time.Time
}

// NewAnalysis returns the analysis of one run of cfg, feeding farm and
// reporting to pub. startWindow is the first window of the run: 0, or the
// durable window frontier of a resumed run, whose stream starts at that
// window's first cut with a zero frontier. slots is the run's cap on
// windows in flight on the farm (its capacity) and must be empty. ctx
// bounds every blocking submit.
func NewAnalysis(ctx context.Context, cfg Config, species []int, farm *StatFarm, slots chan struct{}, pub Publisher, startWindow int) (*Analysis, error) {
	stream, err := window.NewStreamAt(cfg.Trajectories, cfg.WindowSize, cfg.WindowStep, startWindow*cfg.WindowStep)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		ctx:     ctx,
		cfg:     cfg,
		species: species,
		farm:    farm,
		pub:     pub,
		slots:   slots,
		stream:  stream,
		seq:     startWindow,
		pending: make(map[int]pendingStat),
		next:    startWindow,
		end:     -1,
		asm:     NewAssembler(cfg.WindowSize),
	}
	a.emit = a.submit
	return a, nil
}

// Push aligns one batch of samples and submits every window it completes,
// blocking while the run's slots or the farm are full. The batch is
// released on every path: the stream copies each state it keeps.
func (a *Analysis) Push(b *sim.Batch) error {
	defer b.Release()
	for _, s := range b.Samples {
		if err := a.stream.Push(s, a.emit); err != nil {
			return err
		}
	}
	return nil
}

// Cuts returns the number of complete cuts aligned so far (resumed runs
// count from cut 0). Windower goroutine only.
func (a *Analysis) Cuts() int { return a.stream.Cuts() }

// Close checks that the sample stream was complete, submits the trailing
// window and marks the run's window count, taking mu, the lock Reorder
// runs under. done reports that every window has already been published;
// otherwise the Reorder that publishes the last one reports it.
func (a *Analysis) Close(mu sync.Locker) (done bool, err error) {
	if err := a.stream.Close(a.emit); err != nil {
		return false, err
	}
	mu.Lock()
	a.end = a.seq
	done = a.next == a.end
	mu.Unlock()
	return done, nil
}

// submit hands one window to the farm: a slot first (the per-run cap),
// then a deep copy of the window, since the stream recycles its cut
// storage as soon as this returns.
func (a *Analysis) submit(w window.Window) error {
	select {
	case a.slots <- struct{}{}:
	case <-a.ctx.Done():
		return a.ctx.Err()
	}
	if err := a.farm.submit(getWinTask(a, a.seq, a.frontier.Fresh(w.Start, len(w.Cuts)), w)); err != nil {
		return err
	}
	a.seq++
	return nil
}

// analyse is one engine's work on one window of this run.
func (a *Analysis) analyse(eng *stats.Engine, t *winTask) {
	seq, fresh := t.seq, t.fresh
	if !a.pub.Analysing() {
		t.release()
		<-a.slots
		return
	}
	start := time.Now()
	var ws WindowStat
	err := AnalyseWindowFresh(&ws, eng, t.win, a.species, a.cfg, fresh)
	lat := time.Since(start)
	t.release()
	<-a.slots
	a.pub.Analysed(seq, fresh, ws, lat, err)
}

// Reorder parks one analysed window and publishes every window that is
// now next in order, completed by the Assembler. Call it under the
// publisher's lock with what Analysed received. It reports whether the run
// is complete: the windower has closed and every window is published.
func (a *Analysis) Reorder(seq, fresh int, ws WindowStat, lat time.Duration) bool {
	a.pending[seq] = pendingStat{ws: ws, fresh: fresh, lat: lat, at: time.Now()}
	for {
		p, ok := a.pending[a.next]
		if !ok {
			break
		}
		delete(a.pending, a.next)
		a.next++
		wait := time.Since(p.at)
		a.asm.Assemble(&p.ws, p.fresh)
		a.pub.PublishLocked(p.ws, p.lat, wait)
	}
	return a.next == a.end
}

// winTask is one window of one run in flight on a stat farm: a deep copy
// of the window's cuts, its sequence number in the run and its fresh-cut
// count. Tasks are pooled; capture and release keep the copy
// allocation-free once warm.
type winTask struct {
	a     *Analysis
	seq   int
	fresh int
	buf   window.CopyBuffer
	win   window.Window
}

var winTaskPool = sync.Pool{New: func() any { return new(winTask) }}

func getWinTask(a *Analysis, seq, fresh int, w window.Window) *winTask {
	t := winTaskPool.Get().(*winTask)
	t.a, t.seq, t.fresh = a, seq, fresh
	t.win = t.buf.Capture(w)
	return t
}

func (t *winTask) release() {
	t.a = nil
	t.win = window.Window{}
	winTaskPool.Put(t)
}

// errFarmClosed is what a submit to a closed StatFarm returns.
var errFarmClosed = errors.New("core: stat farm closed")

// StatFarm is a farm of statistical engines: a fixed set of goroutines,
// each owning a reusable stats.Engine, that any number of Analyses feed
// through one FIFO queue. A serve Server keeps one for all its jobs; Run
// and RunGPU open one per run. Each engine analyses only its window's
// fresh cuts; the window's Analysis restores window order behind the farm.
// The retained WindowStat is allocated per window — publishers keep it —
// while all analysis scratch is reused.
type StatFarm struct {
	engines int
	tasks   chan *winTask
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// closed/submitting gate the shutdown: Close refuses new submits and
	// waits out the in-flight ones before draining the task queue, so a
	// racing submit can never enqueue a task after the drain (which would
	// strand the task and its run's slot forever).
	mu         sync.Mutex
	done       sync.Cond
	closed     bool
	submitting int
}

// NewStatFarm starts a farm of engines engines behind a queue of
// queueDepth windows (both at least 1).
func NewStatFarm(engines, queueDepth int) *StatFarm {
	engines, queueDepth = max(engines, 1), max(queueDepth, 1)
	ctx, cancel := context.WithCancel(context.Background())
	f := &StatFarm{
		engines: engines,
		tasks:   make(chan *winTask, queueDepth),
		ctx:     ctx,
		cancel:  cancel,
	}
	f.done.L = &f.mu
	f.wg.Add(engines)
	for i := 0; i < engines; i++ {
		go f.engine()
	}
	return f
}

// Engines returns the farm width.
func (f *StatFarm) Engines() int { return f.engines }

// submit hands one captured window to the farm, blocking only on farm
// capacity (queue full and every engine busy) or the run's context. The
// task's run already holds a slot for it; a refused task frees it.
func (f *StatFarm) submit(t *winTask) error {
	a := t.a
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		t.release()
		<-a.slots
		return errFarmClosed
	}
	f.submitting++
	f.mu.Unlock()
	var err error
	select {
	case f.tasks <- t:
	case <-a.ctx.Done():
		t.release()
		<-a.slots
		err = a.ctx.Err()
	case <-f.ctx.Done():
		t.release()
		<-a.slots
		err = errFarmClosed
	}
	f.mu.Lock()
	f.submitting--
	if f.submitting == 0 && f.closed {
		f.done.Broadcast()
	}
	f.mu.Unlock()
	return err
}

// engine is one statistical engine: it analyses windows from any run with
// a private reusable scratch engine.
func (f *StatFarm) engine() {
	defer f.wg.Done()
	eng := stats.NewEngine()
	for {
		select {
		case <-f.ctx.Done():
			return
		case t := <-f.tasks:
			t.a.analyse(eng, t)
		}
	}
}

// Close stops the farm: it refuses new submits, waits out the in-flight
// ones (every run must already be over, so a submit blocked on a full
// queue unblocks via its run's cancelled context), stops the engines and
// releases everything still queued.
func (f *StatFarm) Close() {
	f.mu.Lock()
	f.closed = true
	for f.submitting > 0 {
		f.done.Wait()
	}
	f.mu.Unlock()
	f.cancel()
	f.wg.Wait()
	for {
		select {
		case t := <-f.tasks:
			// Free the slot too, preserving the acquire/free pairing even
			// though every run is over by here (nobody is waiting).
			<-t.a.slots
			t.release()
		default:
			return
		}
	}
}
