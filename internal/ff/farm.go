package ff

import "context"

// Farm replicates a Worker across n parallel instances and releases their
// outputs in task order (FastFlow's ordered farm, ofarm): tagger → workers
// → reordering collector. Each task may emit any number of outputs; the
// outputs of task k are released, contiguously, before those of task k+1.
// A Farm is itself a Node and can appear anywhere in a graph.
type Farm[In, Out any] struct {
	n       int
	factory func(workerID int) Worker[In, Out]
}

// NewFarm builds a farm of n workers. The factory is called once per worker
// with the worker index, allowing per-worker state (e.g. private scratch).
func NewFarm[In, Out any](n int, factory func(workerID int) Worker[In, Out]) *Farm[In, Out] {
	if n < 1 {
		n = 1
	}
	return &Farm[In, Out]{n: n, factory: factory}
}

// taggedGroup carries the outputs a worker produced for one input task.
// The first output is stored inline: in the overwhelmingly common 1:1 case
// (one result per task, e.g. one WindowStat per window) a group costs no
// allocation, and only 2+-output tasks spill into the rest slice.
type taggedGroup[Out any] struct {
	seq   uint64
	n     int
	first Out
	rest  []Out
}

// add records one output of the group's task.
func (g *taggedGroup[Out]) add(v Out) {
	if g.n == 0 {
		g.first = v
	} else {
		g.rest = append(g.rest, v)
	}
	g.n++
}

// flush emits the group's outputs in production order.
func (g *taggedGroup[Out]) flush(emit Emit[Out]) error {
	if g.n == 0 {
		return nil
	}
	if err := emit(g.first); err != nil {
		return err
	}
	for _, v := range g.rest {
		if err := emit(v); err != nil {
			return err
		}
	}
	return nil
}

// Run implements Node.
func (f *Farm[In, Out]) Run(ctx context.Context, in <-chan In, emit Emit[Out]) error {
	type taggedTask struct {
		seq  uint64
		task In
	}
	taskq := make(chan taggedTask, defaultQueueDepth)
	collect := make(chan taggedGroup[Out], defaultQueueDepth)
	g := newGroup(ctx)

	// Tagger.
	g.Go(func(ctx context.Context) error {
		defer close(taskq)
		var seq uint64
		for {
			task, ok, err := recvOne(ctx, in)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			select {
			case taskq <- taggedTask{seq: seq, task: task}:
			case <-ctx.Done():
				return ctx.Err()
			}
			seq++
		}
	})

	workers := newGroup(g.ctx)
	for w := 0; w < f.n; w++ {
		worker := f.factory(w)
		workers.Go(func(ctx context.Context) error {
			// One group cell per worker, reset per task: the common
			// one-output case crosses to the collector without allocating.
			var grp taggedGroup[Out]
			buffered := func(v Out) error {
				grp.add(v)
				return nil
			}
			for {
				tt, ok, err := recvOne(ctx, taskq)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				// Fresh group; rest must not be reused after the send below
				// (the collector owns it), so it is dropped, not truncated.
				grp = taggedGroup[Out]{seq: tt.seq}
				if err := worker.Do(ctx, tt.task, buffered); err != nil {
					return err
				}
				select {
				case collect <- grp:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		})
	}
	g.Go(func(ctx context.Context) error {
		defer close(collect)
		return workers.Wait()
	})

	// Reordering collector.
	g.Go(func(ctx context.Context) error {
		pendingBySeq := make(map[uint64]taggedGroup[Out])
		var next uint64
		release := func() error {
			for {
				grp, ok := pendingBySeq[next]
				if !ok {
					return nil
				}
				delete(pendingBySeq, next)
				if err := grp.flush(emit); err != nil {
					return err
				}
				next++
			}
		}
		for {
			grp, ok, err := recvOne(ctx, collect)
			if err != nil {
				return err
			}
			if !ok {
				// Flush anything ready (there should be nothing out of
				// order left if all workers completed cleanly).
				return release()
			}
			pendingBySeq[grp.seq] = grp
			if err := release(); err != nil {
				return err
			}
		}
	})
	return g.Wait()
}
