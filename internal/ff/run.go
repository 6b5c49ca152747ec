package ff

import "context"

// Source produces a stream with no input. The function must return once all
// values are emitted (or on emit error); the runtime closes the stream.
type Source[T any] func(ctx context.Context, emit Emit[T]) error

// Run drives a complete graph: source → node → sink. The sink is called
// sequentially (never concurrently). Run blocks until the graph drains or
// fails, and returns the first error.
func Run[In, Out any](ctx context.Context, src Source[In], node Node[In, Out], sink func(Out) error) error {
	input := make(chan In, defaultQueueDepth)
	g := newGroup(ctx)
	g.Go(func(ctx context.Context) error {
		defer close(input)
		return src(ctx, emitTo(ctx, input))
	})
	g.Go(func(ctx context.Context) error {
		return node.Run(ctx, input, func(v Out) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return sink(v)
		})
	})
	return g.Wait()
}
