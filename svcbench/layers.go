package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/gillespie"
	"cwcflow/internal/lease"
	"cwcflow/internal/models"
	"cwcflow/internal/obs"
	"cwcflow/internal/serve"
	"cwcflow/internal/serve/sched"
	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/store"
	"cwcflow/internal/window"
)

// timeOp returns the mean nanoseconds of one op call, running batches of
// doubling size until minDur has passed. The first call is a warm-up.
func timeOp(minDur time.Duration, op func() error) (float64, error) {
	if err := op(); err != nil {
		return 0, err
	}
	n := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		n += batch
		if el := time.Since(start); el >= minDur {
			return float64(el.Nanoseconds()) / float64(n), nil
		}
	}
}

// firstWindow simulates spec until its first window of cuts is complete
// and returns a private copy, the analysis result for it, and one
// quantum's sample batch (owned by the caller) — real inputs for the layer
// timings.
func firstWindow(spec serve.JobSpec) (win window.Window, ws core.WindowStat, batch *sim.Batch, err error) {
	cfg, species, err := configFor(spec)
	if err != nil {
		return win, ws, nil, err
	}
	stream, err := window.NewStream(cfg.Trajectories, cfg.WindowSize, cfg.WindowStep)
	if err != nil {
		return win, ws, nil, err
	}
	tasks := make([]*sim.Task, cfg.Trajectories)
	for i := range tasks {
		if tasks[i], err = core.NewTrajectoryTask(cfg, i); err != nil {
			return win, ws, nil, err
		}
	}
	var buf window.CopyBuffer
	got := false
	emit := func(w window.Window) error {
		if !got {
			win, got = buf.Capture(w), true
		}
		return nil
	}
	batch = sim.GetBatch()
	for !got {
		for _, task := range tasks {
			if task.Done() {
				return win, ws, nil, fmt.Errorf("svcbench: %s job ended before its first window", spec.Model)
			}
			batch.Reset()
			if err := task.RunQuantumBatch(batch); err != nil {
				return win, ws, nil, err
			}
			for _, s := range batch.Samples {
				if err := stream.Push(s, emit); err != nil {
					return win, ws, nil, err
				}
			}
		}
	}
	err = core.AnalyseWindowInto(&ws, stats.NewEngine(), win, species, cfg)
	return win, ws, batch, err
}

// countingWriter counts the bytes a dff.Writer puts on the wire.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// measureLayers times each layer from outside, through its public
// functions, for about minDur per timing. None of it depends on the
// workload or the seed: these are the per-call costs the workloads
// multiply.
func measureLayers(e env, minDur time.Duration) (out []metric, err error) {
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name, v, unit, note})
	}
	if err := os.MkdirAll(e.out, 0o777); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.out, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// gillespie: one SSA step of the compiled Neurospora network.
	direct, err := gillespie.NewDirect(models.Neurospora(100), 1)
	if err != nil {
		return nil, err
	}
	ns, err := timeOp(minDur, func() error { direct.Step(); return nil })
	if err != nil {
		return nil, err
	}
	add("gillespie.step_ns", ns, "ns", "Direct.Step, Neurospora(100)")

	// sim: one quantum of a sim-heavy trajectory into a reused batch.
	simSpec := simHeavySpec(1, 0)
	simSpec.End = 1e9 // never finishes inside the timing
	simCfg, _, err := configFor(simSpec)
	if err != nil {
		return nil, err
	}
	task, err := core.NewTrajectoryTask(simCfg, 0)
	if err != nil {
		return nil, err
	}
	batch := sim.GetBatch()
	defer batch.Release()
	quanta, samples := 0, 0
	ns, err = timeOp(minDur, func() error {
		batch.Reset()
		err := task.RunQuantumBatch(batch)
		quanta++
		samples += len(batch.Samples)
		return err
	})
	if err != nil {
		return nil, err
	}
	add("sim.quantum_ns_per_sample", ns*float64(quanta)/float64(max(samples, 1)), "ns", "Task.RunQuantumBatch into a pooled Batch")

	// window: alignment plus sliding, 256 trajectories, step 1.
	stream, err := window.NewStream(256, 16, 1)
	if err != nil {
		return nil, err
	}
	state := []int64{990, 10, 0}
	cut := 0
	ns, err = timeOp(minDur, func() error {
		for traj := 0; traj < 256; traj++ {
			s := sim.Sample{Traj: traj, Index: cut, Time: float64(cut) * 0.05, State: state}
			if err := stream.Push(s, func(window.Window) error { return nil }); err != nil {
				return err
			}
		}
		cut++
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("window.push_ns_per_sample", ns/256, "ns", "Aligner.Push + Slider.Push, 256 trajectories, step 1")

	// stats: one window of the stats-heavy configuration.
	statsSpec, _ := workloadByName("stats-heavy.local")
	statsCfg, statsSpecies, err := configFor(statsSpec.spec(1, 0))
	if err != nil {
		return nil, err
	}
	win, _, b, err := firstWindow(statsSpec.spec(1, 0))
	if err != nil {
		return nil, err
	}
	b.Release()
	eng := stats.NewEngine()
	var ws core.WindowStat
	ns, err = timeOp(minDur, func() error { return core.AnalyseWindowInto(&ws, eng, win, statsSpecies, statsCfg) })
	if err != nil {
		return nil, err
	}
	add("stats.analyse_us_per_window", ns/1e3, "us", "core.AnalyseWindowInto, 16 cuts × 256 trajectories, k-means 8, period detection")

	// dff: one quantum's ResultMsg there and back over loopback TCP.
	_, _, quantumBatch, err := firstWindow(simHeavySpec(1, 0))
	if err != nil {
		return nil, err
	}
	defer quantumBatch.Release()
	rtt, wireBytes, err := dffRoundTrip(minDur, core.ResultMsg{Samples: quantumBatch.Samples, ElapsedNs: 30_000})
	if err != nil {
		return nil, err
	}
	add("dff.roundtrip_us_per_batch", rtt/1e3, "us", "Writer.Send + Reader.Recv of core.ResultMsg, echoed over loopback TCP")
	add("dff.bytes_per_sample", wireBytes/float64(len(quantumBatch.Samples)), "B", "one direction")

	// store: window appends and the fsync of a durable edge.
	_, smallWS, b, err := firstWindow(smallJobSpec(1, 0))
	if err != nil {
		return nil, err
	}
	b.Release()
	journal, err := store.Open(filepath.Join(tmp, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	if err := journal.AppendSubmit("layers", time.Now(), json.RawMessage(`{}`), serve.DefaultTenant); err != nil {
		return nil, err
	}
	seq := 0
	before := journal.Stats().JournalBytes
	appendNs, err := timeOp(minDur, func() error {
		seq++
		return journal.AppendWindow("layers", seq-1, &smallWS)
	})
	if err != nil {
		return nil, err
	}
	add("store.append_us", appendNs/1e3, "us", "Store.AppendWindow")
	add("store.bytes_per_window", float64(journal.Stats().JournalBytes-before)/float64(seq), "B", "journal frame of one small-jobs window")
	syncNs, err := timeOp(minDur, func() error {
		seq++
		if err := journal.AppendWindow("layers", seq-1, &smallWS); err != nil {
			return err
		}
		return journal.Sync()
	})
	if err != nil {
		return nil, err
	}
	add("store.sync_us", max(syncNs-appendNs, 0)/1e3, "us", "Store.Sync after one append (append time subtracted)")

	// serve: admission of a small job, and the spec digest alone.
	svc, err := serve.New(serve.Options{Workers: 1, StatEngines: 1, NoCache: true})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	var submitNs, submits float64
	for start := time.Now(); time.Since(start) < minDur || submits == 0; submits++ {
		spec := smallJobSpec(1, int(submits))
		t0 := time.Now()
		res, err := svc.SubmitOutcome(spec, "")
		submitNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, err
		}
		<-res.Job.Done()
	}
	add("serve.submit_us", submitNs/submits/1e3, "us", "in-process Server.SubmitOutcome until it returns")
	digestSpec := smallJobSpec(1, 0)
	ns, err = timeOp(minDur, func() error { _ = serve.SpecDigest(digestSpec); return nil })
	if err != nil {
		return nil, err
	}
	add("serve.spec_digest_us", ns/1e3, "us", "serve.SpecDigest")

	// serve/sched: one push and one pop per discipline.
	fifo := sched.NewFIFO[int]()
	ns, err = timeOp(minDur, func() error { fifo.Push(1); fifo.Pop(); return nil })
	if err != nil {
		return nil, err
	}
	add("sched.fifo_push_pop_ns", ns, "ns", "FIFO Push + Pop")
	var flow *sched.Flow[int]
	wfq := sched.NewWFQ(func(int) *sched.Flow[int] { return flow })
	flow = wfq.NewFlow("bench", 1)
	ns, err = timeOp(minDur, func() error { wfq.Push(1); wfq.Pop(); return nil })
	if err != nil {
		return nil, err
	}
	add("sched.wfq_push_pop_ns", ns, "ns", "WFQ Push + Pop, one flow")

	// lease: no workload runs replicas; recorded so a later replica
	// workload has a baseline.
	leases, err := lease.NewManager(lease.Options{Dir: filepath.Join(tmp, "leases"), Owner: "bench", TTL: time.Minute})
	if err != nil {
		return nil, err
	}
	jobs := 0
	ns, err = timeOp(minDur, func() error {
		jobs++
		_, err := leases.Acquire(fmt.Sprintf("job-%06d", jobs))
		return err
	})
	if err != nil {
		return nil, err
	}
	add("lease.acquire_us", ns/1e3, "us", "Manager.Acquire of a fresh job")
	ns, err = timeOp(minDur, func() error { _, err := leases.Renew("job-000001"); return err })
	if err != nil {
		return nil, err
	}
	add("lease.renew_us", ns/1e3, "us", "Manager.Renew")

	// obs: one histogram observation.
	var hist obs.Histogram
	ns, err = timeOp(minDur, func() error { hist.Observe(1234 * time.Nanosecond); return nil })
	if err != nil {
		return nil, err
	}
	add("obs.observe_ns", ns, "ns", "Histogram.Observe")
	return out, nil
}

// dffRoundTrip sends msg to an echoing peer over loopback TCP and waits for
// it to come back, returning the mean round trip in nanoseconds and the
// bytes one direction of one message puts on the wire.
func dffRoundTrip(minDur time.Duration, msg core.ResultMsg) (rttNs, bytesPerMsg float64, err error) {
	l, err := dff.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in, out := dff.NewReader[core.ResultMsg](conn), dff.NewWriter[core.ResultMsg](conn)
		for {
			m, ok, err := in.Recv()
			if err != nil || !ok || out.Send(m) != nil {
				return
			}
		}
	}()
	var conn net.Conn
	if conn, err = dff.Dial(l.Addr().String(), time.Second); err != nil {
		return 0, 0, err
	}
	counted := &countingWriter{w: conn}
	out, in := dff.NewWriter[core.ResultMsg](counted), dff.NewReader[core.ResultMsg](conn)
	sent := 0
	rttNs, err = timeOp(minDur, func() error {
		sent++
		if err := out.Send(msg); err != nil {
			return err
		}
		_, _, err := in.Recv()
		return err
	})
	conn.Close() // ends the echo loop
	<-echoed
	// The first message also carries gob's type description; the mean over
	// the rest is the steady-state frame.
	return rttNs, float64(counted.n) / float64(sent), err
}
