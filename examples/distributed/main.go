// Distributed: spins up an in-process virtual cluster — three sim-worker
// servers on loopback TCP — and drives the distributed CWC simulator
// against it: the master (the job service's slab scheduler) streams slabs
// out, merges the returned sample streams, and runs alignment + statistics
// locally. The same pipeline code as the shared-memory version; only the
// endpoints changed (the paper's porting claim, §IV-B).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/serve"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Virtual cluster: three workers, two sim engines each.
	var addrs []string
	for i := 0; i < 3; i++ {
		l, err := dff.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
		go func() {
			_ = core.ServeSimWorkerOpts(ctx, l, core.SimWorkerOptions{
				SimWorkers: 2,
				OnError:    func(err error) { log.Println("worker error:", err) },
			})
		}()
	}
	fmt.Println("virtual cluster:", addrs)

	// The master: an in-process job service sharding slabs over the
	// cluster (and its own cores), analysing locally.
	svc, err := serve.New(serve.Options{StatEngines: 2, WorkerAddrs: addrs})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	job, err := svc.Submit(serve.JobSpec{
		Model: "neurospora", Omega: 50, Trajectories: 60, End: 24, Quantum: 2,
		Period: 0.5, WindowSize: 16, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	windows := 0
	lost, err := job.Follow(ctx, 0, nil, func(ws core.WindowStat) error {
		windows++
		last := ws.NumCuts - 1
		fmt.Printf("window %2d: t=[%5.1f,%5.1f]  mean M at window end: %7.2f (±%5.2f across %d trajectories)\n",
			windows, ws.TimeLo, ws.TimeHi,
			ws.PerCut[last][0].Mean, ws.PerCut[last][0].Max-ws.PerCut[last][0].Min,
			ws.PerCut[last][0].N)
		return nil
	})
	st := job.Status()
	if err != nil || lost > 0 || st.State != serve.StateDone {
		log.Fatalf("job %s (%s): err=%v, %d windows lost", st.State, st.Error, err, lost)
	}
	p := st.Progress
	fmt.Printf("\nmaster summary: %d trajectories over %d workers (%d finished remotely), %d cuts, %d samples, %d reactions\n",
		p.Trajectories, len(addrs), p.RemoteTasksDone, p.Cuts, p.Samples, p.Reactions)
}
