// Package ff is a pattern-based stream-parallel runtime in the spirit of
// FastFlow, built on goroutines and channels. It holds the patterns the
// CWC pipeline runs and nothing else:
//
//   - Compose, the pipeline: simulation → alignment → windows →
//     statistics, plus Tee to tap a stream and MapNode for sequential
//     stages;
//   - FarmFeedback, the farm with feedback: simulation engines advance a
//     trajectory by one quantum and hand it back to the dispatcher until it
//     ends (core.Run, the serve pool and every cwc-dist worker run one);
//   - Farm, the ordered farm (ofarm): statistical engines analyse windows in
//     parallel and the collector releases results in window order.
//
// Run drives a Source through a Node into a sink. Every pattern is a Node,
// so they compose freely; every pattern honours context cancellation and
// propagates the first error raised by any of its components, cancelling
// the rest of the graph.
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
