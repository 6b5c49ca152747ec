// Package dff is the distributed layer of the stream runtime: typed,
// one-directional value streams over byte connections (TCP in production,
// net.Pipe in tests), with explicit end-of-stream signalling — the
// equivalent of FastFlow's dnode channels that let a farm or pipeline span
// process and host boundaries.
//
// A Writer[T]/Reader[T] pair carries a stream of T values encoded with
// encoding/gob. Streams compose with the shared-memory runtime by pumping
// into/out of channels (Pump, Drain), so a pipeline stage can transparently
// live on another host: the paper's "farm of simulation pipelines" runs
// each inner pipeline behind one such connection.
package dff

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// envelope frames one value or the end-of-stream marker.
type envelope[T any] struct {
	EOF bool
	Val T
}

// Writer is the sending endpoint of a typed stream.
type Writer[T any] struct {
	mu     sync.Mutex
	enc    *gob.Encoder
	closed bool
	err    error // sticky: a gob encoder is undefined after one failure
}

// NewWriter wraps w into a typed stream sender.
func NewWriter[T any](w io.Writer) *Writer[T] {
	return &Writer[T]{enc: gob.NewEncoder(w)}
}

// Send transmits one value. It is safe for concurrent use. After any
// transport failure the stream is broken for good: the error is sticky and
// every later Send returns it (a gob encoder's state is undefined once an
// Encode fails mid-frame, so retrying on the same connection could emit a
// torn stream the peer misparses).
func (w *Writer[T]) Send(v T) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("dff: send on closed stream")
	}
	if err := w.enc.Encode(envelope[T]{Val: v}); err != nil {
		w.err = fmt.Errorf("dff: send: %w", err)
		return w.err
	}
	return nil
}

// Close transmits the end-of-stream marker. It does not close the
// underlying connection (the other direction may still be active). On an
// already-broken stream it reports the sticky transport error.
func (w *Writer[T]) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.enc.Encode(envelope[T]{EOF: true}); err != nil {
		w.err = fmt.Errorf("dff: close: %w", err)
		return w.err
	}
	return nil
}

// Err returns the sticky transport error, if any (nil while healthy).
func (w *Writer[T]) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Reader is the receiving endpoint of a typed stream.
type Reader[T any] struct {
	dec *gob.Decoder
}

// NewReader wraps r into a typed stream receiver.
func NewReader[T any](r io.Reader) *Reader[T] {
	return &Reader[T]{dec: gob.NewDecoder(r)}
}

// Recv returns the next value; ok=false (with nil error) after the peer
// closed the stream. A broken connection surfaces as an error.
func (r *Reader[T]) Recv() (v T, ok bool, err error) {
	var env envelope[T]
	if err := r.dec.Decode(&env); err != nil {
		if errors.Is(err, io.EOF) {
			return v, false, fmt.Errorf("dff: connection dropped before end-of-stream: %w", err)
		}
		return v, false, fmt.Errorf("dff: recv: %w", err)
	}
	if env.EOF {
		return v, false, nil
	}
	return env.Val, true, nil
}

// Drain forwards every remaining value of the stream into out, returning
// when the stream closes. It honours ctx cancellation between values.
func (r *Reader[T]) Drain(ctx context.Context, out chan<- T) error {
	for {
		v, ok, err := r.Recv()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		select {
		case out <- v:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Pump forwards every value from in into the writer, closing the stream
// when in closes. It honours ctx cancellation.
func Pump[T any](ctx context.Context, w *Writer[T], in <-chan T) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case v, ok := <-in:
			if !ok {
				return w.Close()
			}
			if err := w.Send(v); err != nil {
				return err
			}
		}
	}
}

// Dial connects to a TCP peer with the given timeout.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dff: dial %s: %w", addr, err)
	}
	return conn, nil
}

// DialRetry dials addr up to attempts times with backoff between tries,
// honouring ctx between attempts — the reconnect path of a master or
// scheduler whose worker is restarting. Each wait is jittered uniformly
// over [backoff/2, backoff*3/2], so a fleet of clients dropped by one
// restarting peer does not re-dial it in lockstep. The last dial error
// is returned if every attempt fails.
func DialRetry(ctx context.Context, addr string, timeout time.Duration, attempts int, backoff time.Duration) (net.Conn, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(retryJitter(backoff)):
			}
		}
		conn, err := Dial(addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// retryJitter spreads a nominal backoff uniformly over [d/2, d*3/2].
// The mean is preserved, so attempts*backoff still bounds the expected
// total wait.
func retryJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)+1))
}

// Listen opens a TCP listener. addr "127.0.0.1:0" picks a free port
// (returned via the listener's Addr), convenient for in-process clusters.
func Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dff: listen %s: %w", addr, err)
	}
	return l, nil
}

// Serve accepts connections until the listener is closed or the context is
// cancelled, running handler per connection in its own goroutine. It
// returns after all handlers finish. Handler errors are delivered to
// onError (which may be nil).
func Serve(ctx context.Context, l net.Listener, handler func(ctx context.Context, conn net.Conn) error, onError func(error)) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("dff: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := handler(ctx, conn); err != nil && onError != nil {
				onError(err)
			}
		}()
	}
}
