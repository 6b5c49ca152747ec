package ff

import "context"

// Compose connects two nodes into a pipeline stage: the output stream of
// first becomes the input stream of second. Both nodes run concurrently,
// linked by a channel of capacity 1 (the near-synchronous channels FastFlow
// pipelines use).
//
// Compose returns a Node, so pipelines of any length are built by nesting:
//
//	p := ff.Compose(a, ff.Compose(b, c))
func Compose[A, B, C any](first Node[A, B], second Node[B, C]) Node[A, C] {
	return NodeFunc[A, C](func(ctx context.Context, in <-chan A, emit Emit[C]) error {
		mid := make(chan B, defaultQueueDepth)
		g := newGroup(ctx)
		g.Go(func(ctx context.Context) error {
			defer close(mid)
			return first.Run(ctx, in, emitTo(ctx, mid))
		})
		g.Go(func(ctx context.Context) error {
			return second.Run(ctx, mid, func(v C) error {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
				return emit(v)
			})
		})
		return g.Wait()
	})
}

// Tee duplicates every input value to the downstream emit and to a side
// callback, useful for tapping a stream (e.g. raw-results persistence while
// the analysis pipeline keeps running).
func Tee[T any](side func(T) error) Node[T, T] {
	return NodeFunc[T, T](func(ctx context.Context, in <-chan T, emit Emit[T]) error {
		for {
			v, ok, err := recvOne(ctx, in)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := side(v); err != nil {
				return err
			}
			if err := emit(v); err != nil {
				return err
			}
		}
	})
}
