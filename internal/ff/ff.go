// Package ff is a pattern-based stream-parallel runtime in the spirit of
// FastFlow, built on goroutines and channels. It holds the one pattern the
// CWC pipeline needs from it: FarmFeedback, the farm with feedback, whose
// simulation engines advance a trajectory by one quantum and hand it back
// to the dispatcher until it ends. core.Run, the serve pool and every
// cwc-dist worker run one. The stages after the simulation farm —
// alignment, sliding windows, the ordered farm of statistical engines —
// are core.Analysis.
//
// Run drives a Source through a Node into a sequential sink. Every
// pattern honours context cancellation and propagates the first error
// raised by any of its components, cancelling the rest of the graph.
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
