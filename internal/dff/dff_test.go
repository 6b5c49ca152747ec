package dff

import (
	"context"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type record struct {
	ID    int
	Name  string
	Data  []int64
	Inner struct{ X float64 }
}

func TestWriterReaderRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	w := NewWriter[record](client)
	r := NewReader[record](server)

	want := record{ID: 7, Name: "traj", Data: []int64{1, 2, 3}}
	want.Inner.X = 3.5
	done := make(chan error, 1)
	go func() {
		if err := w.Send(want); err != nil {
			done <- err
			return
		}
		done <- w.Close()
	}()
	got, ok, err := r.Recv()
	if err != nil || !ok {
		t.Fatalf("Recv = (%v, %v)", ok, err)
	}
	if got.ID != want.ID || got.Name != want.Name || len(got.Data) != 3 || got.Inner.X != 3.5 {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, ok, err := r.Recv(); ok || err != nil {
		t.Fatalf("after close: ok=%v err=%v, want false,nil", ok, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestWriterSendAfterClose(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		r := NewReader[int](server)
		for {
			if _, ok, err := r.Recv(); !ok || err != nil {
				return
			}
		}
	}()
	w := NewWriter[int](client)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if err := w.Send(1); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

func TestReaderDroppedConnection(t *testing.T) {
	client, server := net.Pipe()
	r := NewReader[int](server)
	client.Close() // no EOF marker sent
	defer server.Close()
	_, ok, err := r.Recv()
	if ok || err == nil {
		t.Fatal("dropped connection must surface as error, not clean EOF")
	}
}

func TestPumpDrainOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 1000

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	var serveErr error
	recvd := make([]int, 0, n)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			serveErr = err
			return
		}
		defer conn.Close()
		out := make(chan int, 16)
		var drainErr error
		go func() {
			drainErr = NewReader[int](conn).Drain(ctx, out)
			close(out)
		}()
		for v := range out {
			recvd = append(recvd, v)
		}
		serveErr = drainErr
	}()

	conn, err := Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := make(chan int, 16)
	go func() {
		for i := 0; i < n; i++ {
			in <- i
		}
		close(in)
	}()
	if err := Pump(ctx, NewWriter[int](conn), in); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if len(recvd) != n {
		t.Fatalf("received %d, want %d", len(recvd), n)
	}
	for i, v := range recvd {
		if v != i {
			t.Fatalf("recvd[%d] = %d: order broken", i, v)
		}
	}
}

func TestServeHandlesMultipleConnections(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	total := 0
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(ctx, l, func(_ context.Context, conn net.Conn) error {
			r := NewReader[int](conn)
			w := NewWriter[int](conn)
			for {
				v, ok, err := r.Recv()
				if err != nil {
					return err
				}
				if !ok {
					return w.Close()
				}
				mu.Lock()
				total += v
				mu.Unlock()
				if err := w.Send(v * 2); err != nil {
					return err
				}
			}
		}, nil)
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := Dial(l.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			w := NewWriter[int](conn)
			r := NewReader[int](conn)
			for i := 0; i < 10; i++ {
				if err := w.Send(i); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := r.Recv()
				if err != nil || !ok || v != 2*i {
					t.Errorf("echo = (%d,%v,%v), want %d", v, ok, err, 2*i)
					return
				}
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
			if _, ok, err := r.Recv(); ok || err != nil {
				t.Errorf("expected clean EOF, got ok=%v err=%v", ok, err)
			}
		}(c)
	}
	wg.Wait()
	cancel()
	if err := <-serveDone; err != nil && err != context.Canceled {
		t.Fatal(err)
	}
	if total != 4*45 {
		t.Fatalf("total = %d, want %d", total, 4*45)
	}
}

func TestServeStopsOnContextCancel(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, l, func(context.Context, net.Conn) error { return nil }, nil)
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop on cancellation")
	}
}

// Property: any []int64 slice survives the typed stream round trip.
func TestProperty_RoundTripFidelity(t *testing.T) {
	f := func(values [][]int64) bool {
		client, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		w := NewWriter[[]int64](client)
		r := NewReader[[]int64](server)
		errc := make(chan error, 1)
		go func() {
			for _, v := range values {
				if err := w.Send(v); err != nil {
					errc <- err
					return
				}
			}
			errc <- w.Close()
		}()
		for i := 0; ; i++ {
			v, ok, err := r.Recv()
			if err != nil {
				return false
			}
			if !ok {
				return i == len(values) && <-errc == nil
			}
			if i >= len(values) || len(v) != len(values[i]) {
				return false
			}
			for j := range v {
				if v[j] != values[i][j] {
					return false
				}
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamThroughput(b *testing.B) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	w := NewWriter[[8]int64](client)
	r := NewReader[[8]int64](server)
	go func() {
		var v [8]int64
		for i := 0; i < b.N; i++ {
			v[0] = int64(i)
			if err := w.Send(v); err != nil {
				return
			}
		}
		w.Close()
	}()
	b.ResetTimer()
	for {
		_, ok, err := r.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
	}
}

// --- error-path coverage: closed/half-closed connections, peer death,
// cancellation, idle timeouts and reconnect-after-restart.

func TestWriterStickyErrorAfterConnClose(t *testing.T) {
	client, server := net.Pipe()
	server.Close()
	client.Close()
	w := NewWriter[int](client)
	if err := w.Send(1); err == nil {
		t.Fatal("Send on closed connection succeeded")
	}
	first := w.Err()
	if first == nil {
		t.Fatal("no sticky error recorded")
	}
	// The stream is broken for good: every later Send (and Close) reports
	// the same sticky error instead of writing a torn frame.
	if err := w.Send(2); err != first {
		t.Fatalf("second Send: %v, want sticky %v", err, first)
	}
	if err := w.Close(); err != first {
		t.Fatalf("Close: %v, want sticky %v", err, first)
	}
}

func TestSendAfterPeerDeath(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted
	peer.Close() // the peer dies without reading anything

	w := NewWriter[[64]int64](conn)
	// TCP buffering may absorb a few sends; the dead peer must surface as
	// an error within a bounded number of writes, and then stick.
	var sendErr error
	for i := 0; i < 10000; i++ {
		if sendErr = w.Send([64]int64{}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("Send never failed against a dead peer")
	}
	if err := w.Send([64]int64{}); err != sendErr {
		t.Fatalf("Send after failure: %v, want sticky %v", err, sendErr)
	}
}

func TestReaderHalfClosedConnection(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted
	defer peer.Close()

	// The peer sends one value then half-closes its write side without the
	// end-of-stream marker — a worker that crashed between quanta. The
	// reader must surface the second Recv as an error, not a clean close.
	w := NewWriter[int](peer)
	if err := w.Send(7); err != nil {
		t.Fatal(err)
	}
	if tc, ok := peer.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		t.Fatal("expected a TCP connection")
	}
	r := NewReader[int](conn)
	v, ok, err := r.Recv()
	if err != nil || !ok || v != 7 {
		t.Fatalf("first Recv = (%d, %v, %v)", v, ok, err)
	}
	if _, ok, err := r.Recv(); ok || err == nil {
		t.Fatalf("half-closed connection: ok=%v err=%v, want error", ok, err)
	}
}

func TestPumpCancelledByContext(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan int) // nothing ever sent: Pump blocks on the input
	done := make(chan error, 1)
	go func() { done <- Pump(ctx, NewWriter[int](client), in) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Pump = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pump did not honour cancellation")
	}
}

func TestDrainCancelledByContext(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		w := NewWriter[int](client)
		for i := 0; ; i++ {
			if err := w.Send(i); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan int) // never drained: Drain blocks on the output
	done := make(chan error, 1)
	go func() { done <- NewReader[int](server).Drain(ctx, out) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Drain = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not honour cancellation")
	}
}

func TestDialRetryReconnectsAfterRestart(t *testing.T) {
	// Grab a port, then shut the listener down — the "worker crashed"
	// window — and restart it on the same address while DialRetry is
	// already spinning.
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	restarted := make(chan net.Listener, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		nl, err := Listen(addr)
		if err == nil {
			restarted <- nl
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := DialRetry(ctx, addr, time.Second, 50, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("DialRetry never reconnected: %v", err)
	}
	conn.Close()
	if nl := <-restarted; nl != nil {
		nl.Close()
	}
}

func TestDialRetryHonoursContext(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing will ever listen again
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err = DialRetry(ctx, addr, time.Second, 1000, 20*time.Millisecond)
	if err != context.Canceled {
		t.Fatalf("DialRetry = %v, want context.Canceled", err)
	}
}

func TestRetryJitterStaysWithinHalfToThreeHalves(t *testing.T) {
	const base = 100 * time.Millisecond
	lo, hi := base, base
	for i := 0; i < 10000; i++ {
		d := retryJitter(base)
		if d < base/2 || d > base+base/2 {
			t.Fatalf("retryJitter(%v) = %v, want within [%v, %v]", base, d, base/2, base+base/2)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	// The draw should actually spread: 10k samples over a 100ms range
	// landing in a 10ms band would mean the jitter is vestigial.
	if hi-lo < base/10 {
		t.Fatalf("retryJitter spread only [%v, %v] over 10k draws", lo, hi)
	}
	if got := retryJitter(0); got != 0 {
		t.Fatalf("retryJitter(0) = %v, want 0", got)
	}
	if got := retryJitter(-time.Second); got != 0 {
		t.Fatalf("retryJitter(-1s) = %v, want 0", got)
	}
}
