package ff

import (
	"context"
	"sync"
)

// group runs goroutines under a shared context, cancelling all of them on
// the first error and reporting that error from Wait — a minimal errgroup
// kept in-tree to avoid a dependency on golang.org/x/sync. All the
// pattern runtimes in this package are built on it.
type group struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	once sync.Once
	err  error
}

// newGroup returns a group whose goroutines run under a context derived
// from parent.
func newGroup(parent context.Context) *group {
	ctx, cancel := context.WithCancel(parent)
	return &group{ctx: ctx, cancel: cancel}
}

// Go runs f in a goroutine. The first non-nil error cancels the group
// context.
func (g *group) Go(f func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(g.ctx); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

// Wait blocks until all goroutines finish and returns the first error.
func (g *group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}
