// Distributed: spins up an in-process virtual cluster — three sim-worker
// servers on loopback TCP — and drives the distributed CWC simulator
// against it: the master streams trajectory assignments out, merges the
// returned sample streams, and runs alignment + statistics locally. The
// same pipeline code as the shared-memory version; only the endpoints
// changed (the paper's porting claim, §IV-B).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
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

	cfg := core.Config{
		Trajectories: 60,
		End:          24,
		Quantum:      2,
		Period:       0.5,
		StatEngines:  2,
		WindowSize:   16,
		BaseSeed:     99,
	}
	model := core.ModelRef{Name: "neurospora", Omega: 50}

	windows := 0
	info, err := core.RunDistributed(ctx, cfg, model, addrs, func(ws core.WindowStat) error {
		windows++
		last := ws.NumCuts - 1
		fmt.Printf("window %2d: t=[%5.1f,%5.1f]  mean M at window end: %7.2f (±%5.2f across %d trajectories)\n",
			windows, ws.TimeLo, ws.TimeHi,
			ws.PerCut[last][0].Mean, ws.PerCut[last][0].Max-ws.PerCut[last][0].Min,
			ws.PerCut[last][0].N)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmaster summary: %d trajectories over %d workers, %d cuts, %d samples, %d reactions\n",
		info.Trajectories, len(addrs), info.Cuts, info.Samples, info.Reactions)
}
