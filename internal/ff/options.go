package ff

// defaultQueueDepth is the capacity of the channels connecting pattern
// components: 1 gives the near-synchronous links FastFlow uses and the
// tightest load balancing.
const defaultQueueDepth = 1

type config struct {
	queueDepth int
}

func newConfig(opts []Option) config {
	cfg := config{queueDepth: defaultQueueDepth}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Option configures a FarmFeedback.
type Option func(*config)

// WithQueueDepth sets the capacity of the farm's dispatch and collect
// channels. Larger depths trade balance for throughput on fine-grained
// streams.
func WithQueueDepth(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.queueDepth = n
	}
}
