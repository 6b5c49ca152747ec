package core

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"cwcflow/internal/dff"
	"cwcflow/internal/gillespie"
	"cwcflow/internal/models"
	"cwcflow/internal/sim"
)

// slabResolver adds the models the slab tests need to FactoryFor: SIR under
// both SSA engines with a horizon long enough for the epidemic to die out
// (a dead state reached mid-trajectory).
func slabResolver(ref ModelRef) (SimulatorFactory, error) {
	switch ref.Name {
	case "sir-nrm":
		sys := models.SIR(1000, 10, 0.4, 0.1)
		return func(_ int, seed int64) (sim.Simulator, error) {
			return gillespie.NewNextReaction(sys, seed)
		}, nil
	default:
		return FactoryFor(ref)
	}
}

// slabPeer is the master end of one worker stream in a slab test.
type slabPeer struct {
	out *dff.Writer[WorkerMsg]
	in  *dff.Reader[ResultMsg]
}

// dialSlabWorkers starts n one-engine sim workers and opens a job stream
// (header sent) to each.
func dialSlabWorkers(t *testing.T, ctx context.Context, n int, hdr JobHeader) []slabPeer {
	t.Helper()
	peers := make([]slabPeer, n)
	for i := range peers {
		l, err := dff.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			// Worker-side failures surface on the master end as a broken
			// stream; teardown errors after the test are expected.
			_ = ServeSimWorkerOpts(ctx, l, SimWorkerOptions{SimWorkers: 1, Resolver: slabResolver})
		}()
		var conn net.Conn
		if conn, err = dff.Dial(l.Addr().String(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		peers[i] = slabPeer{out: dff.NewWriter[WorkerMsg](conn), in: dff.NewReader[ResultMsg](conn)}
		if err := peers[i].out.Send(WorkerMsg{Header: &hdr}); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// trajectory is everything a master learns about one trajectory.
type trajectory struct {
	samples []sim.Sample
	steps   uint64
	dead    bool
}

// uninterrupted runs one trajectory to its end in a single task.
func uninterrupted(t *testing.T, hdr JobHeader, traj int) trajectory {
	t.Helper()
	factory, err := slabResolver(hdr.Model)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := factory(traj, hdr.BaseSeed+int64(traj))
	if err != nil {
		t.Fatal(err)
	}
	task, err := sim.NewTask(traj, eng, hdr.End, hdr.Quantum, hdr.Period)
	if err != nil {
		t.Fatal(err)
	}
	var got trajectory
	for !task.Done() {
		err := task.RunQuantum(func(s sim.Sample) error {
			got.samples = append(got.samples, s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got.steps, got.dead = task.Steps(), task.Dead()
	return got
}

// recvSlab reads one ResultMsg for traj and appends its samples, checking
// the message starts exactly at the frontier.
func recvSlab(t *testing.T, p slabPeer, traj int, got *trajectory) ResultMsg {
	t.Helper()
	msg, ok, err := p.in.Recv()
	if err != nil || !ok {
		t.Fatalf("trajectory %d: result stream ended early (ok=%v err=%v)", traj, ok, err)
	}
	if msg.Traj != traj || msg.Start != len(got.samples) {
		t.Fatalf("got message for trajectory %d starting at %d, want trajectory %d at %d", msg.Traj, msg.Start, traj, len(got.samples))
	}
	if msg.Quanta < 1 || msg.ElapsedNs < 0 {
		t.Fatalf("trajectory %d: message reports %d quanta in %d ns", traj, msg.Quanta, msg.ElapsedNs)
	}
	got.samples = append(got.samples, msg.Samples...)
	return msg
}

// TestSlabsComposeToUninterruptedTrajectory pins the slab as a pure
// function: cutting a trajectory into slabs (nil, 0→k), (snap, k→2k), …
// and running consecutive slabs on different workers — each restoring into
// whatever engine its farm worker last used — yields samples, step count
// and dead flag bit-identical to one uninterrupted task. Covered: both SSA
// engines, a trajectory that dies mid-slab, a slab length that divides the
// sample count (the last boundary lands exactly on End) and one that does
// not, and a quantum several samples long (slabs overshoot their until).
func TestSlabsComposeToUninterruptedTrajectory(t *testing.T) {
	cases := []struct {
		model   string
		end     float64
		quantum float64
		period  float64
		k       int
		dies    bool
	}{
		{model: "neurospora", end: 12, quantum: 0.5, period: 0.5, k: 5}, // 25 samples: 5 slabs, the last ends on End
		{model: "neurospora", end: 12, quantum: 2, period: 0.5, k: 8},   // 4-sample quanta overshoot the boundaries
		{model: "neurospora-nrm", end: 12, quantum: 0.5, period: 0.5, k: 5},
		{model: "neurospora-nrm", end: 12, quantum: 0.5, period: 0.5, k: 16},
		{model: "sir", end: 400, quantum: 2, period: 2, k: 16, dies: true},
		{model: "sir-nrm", end: 400, quantum: 2, period: 2, k: 16, dies: true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/k=%d/q=%g", tc.model, tc.k, tc.quantum), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hdr := JobHeader{
				Model: ModelRef{Name: tc.model, Omega: 20}, End: tc.end, Quantum: tc.quantum,
				Period: tc.period, BaseSeed: 7, Slab: tc.k,
			}
			peers := dialSlabWorkers(t, ctx, 2, hdr)
			for traj := 0; traj < 3; traj++ {
				want := uninterrupted(t, hdr, traj)
				if want.dead != tc.dies {
					t.Fatalf("trajectory %d: reference dead=%v, the case needs %v", traj, want.dead, tc.dies)
				}
				var got trajectory
				var snap []byte
				for slabs := 0; ; slabs++ {
					p := peers[slabs%len(peers)]
					until := (len(got.samples)/tc.k + 1) * tc.k
					if err := p.out.Send(WorkerMsg{Traj: traj, Snap: snap, Until: until}); err != nil {
						t.Fatal(err)
					}
					msg := recvSlab(t, p, traj, &got)
					if msg.TaskDone {
						got.steps, got.dead = msg.Steps, msg.Dead
						break
					}
					if len(msg.Snap) == 0 || len(got.samples) < until {
						t.Fatalf("trajectory %d: slab to %d ended at %d with a %d-byte snapshot", traj, until, len(got.samples), len(msg.Snap))
					}
					snap = msg.Snap
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trajectory %d diverged from the uninterrupted run: %d/%d samples, steps %d/%d, dead %v/%v",
						traj, len(got.samples), len(want.samples), got.steps, want.steps, got.dead, want.dead)
				}
			}
		})
	}
}

// TestRunToEndSlabStreamsInSlabSizedMessages covers the other two shapes of
// the one worker code path: Until zero (an unset wire field, which the
// worker reads as run-to-end) streams the whole trajectory home in
// JobHeader.Slab-sized messages with no snapshots, and an engine that
// cannot snapshot ignores its Until the same way — either must reproduce
// the uninterrupted trajectory.
func TestRunToEndSlabStreamsInSlabSizedMessages(t *testing.T) {
	for _, tc := range []struct {
		model string
		until int
	}{
		{model: "neurospora", until: 0},
		{model: "neurospora-cwc", until: 8},
	} {
		t.Run(tc.model, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hdr := JobHeader{Model: ModelRef{Name: tc.model, Omega: 20}, End: 12, Quantum: 0.5, Period: 0.5, BaseSeed: 3, Slab: 8}
			p := dialSlabWorkers(t, ctx, 1, hdr)[0]
			// Two trajectories at once: their messages interleave through
			// the worker's feedback queue, each still in order.
			want := []trajectory{uninterrupted(t, hdr, 0), uninterrupted(t, hdr, 1)}
			got := make([]trajectory, 2)
			for traj := range got {
				if err := p.out.Send(WorkerMsg{Traj: traj, Until: tc.until}); err != nil {
					t.Fatal(err)
				}
			}
			for done, msgs := 0, 0; done < len(got); msgs++ {
				msg, ok, err := p.in.Recv()
				if err != nil || !ok {
					t.Fatalf("result stream ended early (ok=%v err=%v)", ok, err)
				}
				g := &got[msg.Traj]
				if msg.Start != len(g.samples) || len(msg.Snap) != 0 || len(msg.Samples) > hdr.Slab {
					t.Fatalf("message %d: trajectory %d start %d (frontier %d), %d samples, %d-byte snapshot",
						msgs, msg.Traj, msg.Start, len(g.samples), len(msg.Samples), len(msg.Snap))
				}
				g.samples = append(g.samples, msg.Samples...)
				if msg.TaskDone {
					g.steps, g.dead = msg.Steps, msg.Dead
					done++
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("run-to-the-end slabs diverged from the uninterrupted trajectories")
			}
			if err := p.out.Close(); err != nil {
				t.Fatal(err)
			}
			trailer, ok, err := p.in.Recv()
			if err != nil || !ok || trailer.Trailer == nil || trailer.Trailer.Tasks != 2 {
				t.Fatalf("trailer = %+v (ok=%v err=%v), want 2 finished tasks", trailer.Trailer, ok, err)
			}
			if want := want[0].steps + want[1].steps; trailer.Trailer.Reactions != want {
				t.Fatalf("trailer reports %d reactions, the trajectories took %d", trailer.Trailer.Reactions, want)
			}
		})
	}
}
