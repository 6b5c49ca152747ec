// Package ff is a pattern-based stream-parallel runtime in the spirit of
// FastFlow, built on goroutines and channels.
//
// The package mirrors FastFlow's layered design:
//
//   - Building blocks: Node (a stream transformer), Emit (a
//     backpressure-aware output function), and the lock-free SPSC queues in
//     the spsc subpackage.
//   - Core patterns: Compose (pipeline), Farm (task-farm with pluggable
//     scheduling), FarmFeedback (farm whose workers can reschedule tasks
//     back to the dispatcher), implemented here.
//   - High-level patterns: ParallelFor, Map, Reduce, MapReduce and
//     DivideAndConquer in the parallel subpackage.
//
// All patterns are themselves Nodes, so they compose freely: a Farm can be a
// pipeline stage, a pipeline can be a farm worker, and so on. Every pattern
// honours context cancellation and propagates the first error raised by any
// of its components, cancelling the rest of the graph.
package ff

import "context"

// Emit publishes one value downstream. It blocks if the consumer is slower
// (backpressure) and returns a non-nil error only when the graph is being
// torn down (context cancelled or a peer failed); after a non-nil return the
// caller should stop producing and return promptly.
type Emit[T any] func(v T) error

// Node is a stream transformer: it consumes values from in until the channel
// is closed (or the context is cancelled) and publishes results via emit.
//
// A Node must not close over the channel: closing is the runtime's job.
// Returning a non-nil error tears down the enclosing graph.
type Node[In, Out any] interface {
	Run(ctx context.Context, in <-chan In, emit Emit[Out]) error
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc[In, Out any] func(ctx context.Context, in <-chan In, emit Emit[Out]) error

// Run implements Node.
func (f NodeFunc[In, Out]) Run(ctx context.Context, in <-chan In, emit Emit[Out]) error {
	return f(ctx, in, emit)
}

// Worker processes one task at a time inside a Farm. Do may emit zero or
// more outputs per task.
type Worker[In, Out any] interface {
	Do(ctx context.Context, task In, emit Emit[Out]) error
}

// WorkerFunc adapts a function to the Worker interface.
type WorkerFunc[In, Out any] func(ctx context.Context, task In, emit Emit[Out]) error

// Do implements Worker.
func (f WorkerFunc[In, Out]) Do(ctx context.Context, task In, emit Emit[Out]) error {
	return f(ctx, task, emit)
}

// Transform lifts a pure 1:1 function into a Worker.
func Transform[In, Out any](f func(In) (Out, error)) Worker[In, Out] {
	return WorkerFunc[In, Out](func(_ context.Context, task In, emit Emit[Out]) error {
		v, err := f(task)
		if err != nil {
			return err
		}
		return emit(v)
	})
}

// MapNode lifts a pure 1:1 function into a sequential pipeline stage.
func MapNode[In, Out any](f func(In) (Out, error)) Node[In, Out] {
	return NodeFunc[In, Out](func(ctx context.Context, in <-chan In, emit Emit[Out]) error {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case v, ok := <-in:
				if !ok {
					return nil
				}
				out, err := f(v)
				if err != nil {
					return err
				}
				if err := emit(out); err != nil {
					return err
				}
			}
		}
	})
}

// FilterNode passes through only the values for which keep returns true.
func FilterNode[T any](keep func(T) bool) Node[T, T] {
	return NodeFunc[T, T](func(ctx context.Context, in <-chan T, emit Emit[T]) error {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case v, ok := <-in:
				if !ok {
					return nil
				}
				if !keep(v) {
					continue
				}
				if err := emit(v); err != nil {
					return err
				}
			}
		}
	})
}

// emitTo returns an Emit that writes to out, aborting on ctx cancellation.
func emitTo[T any](ctx context.Context, out chan<- T) Emit[T] {
	return func(v T) error {
		select {
		case out <- v:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// recvOne reads one value, honouring cancellation. ok=false means the
// channel closed; err!=nil means the context fired first.
func recvOne[T any](ctx context.Context, in <-chan T) (v T, ok bool, err error) {
	select {
	case <-ctx.Done():
		return v, false, ctx.Err()
	case v, ok = <-in:
		return v, ok, nil
	}
}
