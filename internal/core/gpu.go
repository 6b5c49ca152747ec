package core

import (
	"context"

	"cwcflow/internal/gpu"
	"cwcflow/internal/sim"
)

// GPUInfo reports the simulated device activity of a RunGPU execution.
type GPUInfo struct {
	// Launches is the number of kernel launches (one per simulation
	// quantum while any trajectory is unfinished).
	Launches int
	// SimTime is the total simulated device time in seconds.
	SimTime float64
	// Utilization is busy/lockstep cost across all launches — below 1.0
	// means SIMT thread divergence wasted lanes (uneven trajectories).
	Utilization float64
}

// RunGPU executes the pipeline with the simulation stage offloaded to the
// simulated SIMT device (the mapCUDA structure of the paper): every
// simulation quantum becomes one kernel launch advancing all unfinished
// trajectories in parallel, and — matching the atomic CUDA kernel
// execution model — the samples of a quantum enter the analysis pipeline
// only after the whole kernel completes (kernel-wide barrier).
//
// The analysis stages are identical to Run; only the simulation stage
// changes, which is the paper's code-portability claim.
func RunGPU(ctx context.Context, cfg Config, device *gpu.Device, display func(WindowStat) error) (RunInfo, GPUInfo, error) {
	var ginfo GPUInfo
	cfg, err := cfg.withDefaults()
	if err != nil {
		return RunInfo{}, ginfo, err
	}
	species, err := resolveSpecies(cfg)
	if err != nil {
		return RunInfo{}, ginfo, err
	}

	// Build every task up front: the whole ensemble is resident on the
	// device (the paper moves C++ simulation objects to GPU memory via
	// CUDA Unified Memory; here tasks are plain Go values).
	tasks := make([]*sim.Task, cfg.Trajectories)
	for i := range tasks {
		if tasks[i], err = NewTrajectoryTask(cfg, i); err != nil {
			return RunInfo{}, ginfo, err
		}
	}

	var samples int64
	var reactions uint64
	var dead int
	var busy, lockstep float64

	// The launch loop drives the device: one Launch per quantum over the
	// unfinished tasks; per-task samples are buffered during the kernel —
	// each task filling its own pooled batch — and the batches are pushed
	// into the run's Analysis after the barrier.
	info, err := analyse(ctx, cfg, species, display, func(ctx context.Context, push func(*sim.Batch) error) error {
		active := tasks
		buffers := make([]*sim.Batch, len(tasks))
		for len(active) > 0 {
			for i := range buffers[:len(active)] {
				buffers[i] = sim.GetBatch()
			}
			stats, err := device.Launch(ctx, len(active), func(idx int) (float64, error) {
				// Each kernel item owns buffers[idx].
				task := active[idx]
				before := task.Steps()
				if err := task.RunQuantumBatch(buffers[idx]); err != nil {
					return 0, err
				}
				// Cost = reactions fired in this quantum: the source of
				// warp divergence across uneven trajectories.
				return float64(task.Steps()-before) + 1, nil
			})
			if err != nil {
				for _, b := range buffers[:len(active)] {
					b.Release()
				}
				return err
			}
			ginfo.Launches++
			ginfo.SimTime += stats.SimTime
			busy += stats.BusyCost
			lockstep += stats.LockstepCost

			// Kernel barrier passed: push the quantum's batches (the
			// Analysis recycles them).
			for i := range active {
				b := buffers[i]
				buffers[i] = nil
				samples += int64(len(b.Samples))
				if len(b.Samples) == 0 {
					b.Release()
					continue
				}
				if err := push(b); err != nil {
					for _, rest := range buffers[i+1 : len(active)] {
						rest.Release()
					}
					return err
				}
			}
			// Compact out the finished tasks.
			live := active[:0]
			for _, t := range active {
				if !t.Done() {
					live = append(live, t)
				} else {
					reactions += t.Steps()
					if t.Dead() {
						dead++
					}
				}
			}
			active = live
		}
		return nil
	})
	if err != nil {
		return info, ginfo, err
	}
	info.Samples = samples
	info.Reactions = reactions
	info.DeadTasks = dead
	if lockstep > 0 {
		ginfo.Utilization = busy / lockstep
	} else {
		ginfo.Utilization = 1
	}
	return info, ginfo, nil
}
