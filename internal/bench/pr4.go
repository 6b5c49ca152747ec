// PR4 is the machine-readable benchmark of the multi-node serve work: the
// same stats-light, simulation-heavy job run once on the local pool alone
// and once sharded across two in-process cwc-dist sim workers, reporting
// end-to-end windows/sec for both. cwc-bench -exp pr4 writes it as
// BENCH_PR4.json, which CI uploads as an artifact next to the distributed
// smoke job.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/serve"
)

// PR4Report is the schema of BENCH_PR4.json.
type PR4Report struct {
	// NumCPU qualifies the speedup: two extra worker processes on a
	// single-core host time-slice the same CPU, so the distributed number
	// approaches local throughput instead of exceeding it.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`

	LocalWindowsPerSec        float64 `json:"local_windows_per_sec"`
	Distributed2WindowsPerSec float64 `json:"distributed_2workers_windows_per_sec"`
	Speedup                   float64 `json:"speedup"`
	// RemoteTasksDone proves the distributed measurement actually sharded
	// (trajectories completed on the remote workers).
	RemoteTasksDone int64 `json:"remote_tasks_done"`
	RequeuedTasks   int64 `json:"requeued_tasks"`
}

// PR4 runs the report's measurements: one job of pr3's synthetic walk
// model, local-only versus sharded across two in-process sim workers.
func PR4() (*PR4Report, error) {
	rep := &PR4Report{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	spec := serve.JobSpec{
		Model:        "pr4",
		Trajectories: 128,
		End:          32,
		Quantum:      4,
		Period:       0.25,
		WindowSize:   16,
		WindowStep:   16,
		Seed:         7,
	}

	measure := func(workerAddrs []string) (float64, serve.Status, error) {
		svc, err := serve.New(serve.Options{
			Workers:        2,
			StatEngines:    2,
			Resolver:       pr3Resolver,
			WorkerAddrs:    workerAddrs,
			WorkerInFlight: 8,
		})
		if err != nil {
			return 0, serve.Status{}, err
		}
		defer svc.Close()
		start := time.Now()
		job, err := svc.Submit(spec)
		if err != nil {
			return 0, serve.Status{}, err
		}
		<-job.Done()
		st := job.Status()
		if st.State != serve.StateDone {
			return 0, st, fmt.Errorf("bench: pr4 job ended %s (%s)", st.State, st.Error)
		}
		return float64(st.Progress.Windows) / time.Since(start).Seconds(), st, nil
	}

	// Local-only reference.
	local, _, err := measure(nil)
	if err != nil {
		return nil, err
	}
	rep.LocalWindowsPerSec = local

	// Two in-process sim workers on loopback TCP, running the identical
	// synthetic model through the same resolver.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := dff.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		go func() {
			_ = core.ServeSimWorkerOpts(ctx, l, core.SimWorkerOptions{SimWorkers: 2, Resolver: pr3Resolver})
		}()
	}
	dist, st, err := measure(addrs)
	if err != nil {
		return nil, err
	}
	rep.Distributed2WindowsPerSec = dist
	rep.RemoteTasksDone = st.Progress.RemoteTasksDone
	rep.RequeuedTasks = st.Progress.RequeuedTasks
	if rep.RemoteTasksDone == 0 {
		return nil, fmt.Errorf("bench: pr4 distributed run completed no trajectories remotely")
	}
	rep.Speedup = rep.Distributed2WindowsPerSec / rep.LocalWindowsPerSec
	return rep, nil
}
