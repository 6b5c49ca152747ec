// Package gpu provides a software model of a CUDA-like GPGPU device
// executing kernels under the Single-Instruction-Multiple-Thread (SIMT)
// model.
//
// The paper offloads CWC simulation quanta to an NVidia K40 through
// FastFlow's mapCUDA node; the reproduction assumes no GPU, so the device
// is simulated (see docs/ARCHITECTURE.md, "The evaluation substitute").
// The simulation is functional *and* temporal:
//
//   - functionally, every work item runs its real Go kernel closure, so the
//     offloaded computation produces exactly the results the CPU path
//     produces;
//   - temporally, each work item reports an abstract cost, and the device
//     computes the kernel's simulated execution time under SIMT semantics:
//     the 32 lanes of a warp advance in lockstep, so a warp costs as much as
//     its slowest lane (thread divergence), warps are list-scheduled on the
//     available warp slots, and each launch pays a fixed overhead plus a
//     global barrier at kernel end.
//
// Thread divergence and kernel-granularity effects — the two phenomena
// Table I of the paper demonstrates — therefore *emerge* from the model
// rather than being hard-coded.
package gpu

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
)

// Device models a CUDA-like accelerator.
//
// The zero value is not usable; construct with NewDevice or use a preset
// such as TeslaK40.
type Device struct {
	cfg DeviceConfig
}

// DeviceConfig describes the modelled hardware.
type DeviceConfig struct {
	// Name labels the device in reports.
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of scalar cores per SM.
	CoresPerSM int
	// WarpSize is the number of lanes advancing in lockstep (32 on CUDA
	// hardware).
	WarpSize int
	// LaunchOverhead is the fixed simulated cost of one kernel launch,
	// in seconds (host-device round trip, kernel setup).
	LaunchOverhead float64
	// SecondsPerCost converts one unit of kernel-reported cost into
	// simulated seconds on one lane. It calibrates the model against a
	// concrete device's single-thread throughput.
	SecondsPerCost float64
}

// TeslaK40 returns a configuration approximating the NVidia Tesla K40 used
// in the paper: 15 SMX x 192 cores = 2880 scalar cores.
// GPU scalar cores are individually much slower than a Xeon core;
// SecondsPerCost reflects that (roughly 10x slower per lane), which is why
// a GPU only wins through massive parallelism.
func TeslaK40() DeviceConfig {
	return DeviceConfig{
		Name:           "tesla-k40",
		SMs:            15,
		CoresPerSM:     192,
		WarpSize:       32,
		LaunchOverhead: 20e-6,
		SecondsPerCost: 10e-9,
	}
}

// NewDevice validates the configuration and returns a Device.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.SMs < 1 || cfg.CoresPerSM < 1 {
		return nil, fmt.Errorf("gpu: need at least 1 SM and 1 core per SM, got %d x %d", cfg.SMs, cfg.CoresPerSM)
	}
	if cfg.WarpSize < 1 {
		return nil, fmt.Errorf("gpu: warp size must be >= 1, got %d", cfg.WarpSize)
	}
	if cfg.CoresPerSM%cfg.WarpSize != 0 {
		return nil, fmt.Errorf("gpu: cores per SM (%d) must be a multiple of warp size (%d)", cfg.CoresPerSM, cfg.WarpSize)
	}
	if cfg.SecondsPerCost <= 0 {
		return nil, errors.New("gpu: SecondsPerCost must be positive")
	}
	if cfg.LaunchOverhead < 0 {
		return nil, errors.New("gpu: LaunchOverhead must be non-negative")
	}
	return &Device{cfg: cfg}, nil
}

// Config returns the device configuration.
func (d *Device) Config() DeviceConfig { return d.cfg }

// WarpSlots is the number of warps the device can execute concurrently.
func (d *Device) WarpSlots() int { return d.cfg.SMs * d.cfg.CoresPerSM / d.cfg.WarpSize }

// Cores is the total number of scalar cores.
func (d *Device) Cores() int { return d.cfg.SMs * d.cfg.CoresPerSM }

// Kernel is one work item of a launch: it receives its global index and
// returns the abstract cost of the work it performed (e.g. the number of
// SSA steps executed). The closure runs real host code; cost feeds only the
// timing model.
type Kernel func(idx int) (cost float64, err error)

// LaunchStats reports the simulated execution of one kernel launch.
type LaunchStats struct {
	// Items is the number of work items (CUDA threads) launched.
	Items int
	// Warps is ceil(Items/WarpSize).
	Warps int
	// SimTime is the simulated wall-clock duration of the launch in
	// seconds, including LaunchOverhead.
	SimTime float64
	// BusyCost is the total cost actually executed by all lanes.
	BusyCost float64
	// LockstepCost is the cost charged under SIMT lockstep semantics
	// (warp width x max lane cost, summed over warps). The gap between
	// LockstepCost and BusyCost is pure divergence waste.
	LockstepCost float64
}

// Utilization is the fraction of charged lane time doing useful work:
// BusyCost / LockstepCost (1.0 = no divergence). Zero items yield 1.
func (s LaunchStats) Utilization() float64 {
	if s.LockstepCost == 0 {
		return 1
	}
	return s.BusyCost / s.LockstepCost
}

// Launch executes n work items as one kernel, in index order on the calling
// goroutine, checking ctx before each item and stopping at the first error.
// It returns once every item has completed (the CUDA kernel-wide barrier:
// results of a launch are not observable before the whole kernel finishes)
// with the simulated timing under the SIMT model.
func (d *Device) Launch(ctx context.Context, n int, k Kernel) (LaunchStats, error) {
	stats := LaunchStats{Items: n}
	if n <= 0 {
		stats.SimTime = d.cfg.LaunchOverhead
		return stats, nil
	}
	costs := make([]float64, n)
	for i := range costs {
		if err := ctx.Err(); err != nil {
			return LaunchStats{}, err
		}
		c, err := k(i)
		if err != nil {
			return LaunchStats{}, fmt.Errorf("gpu: kernel item %d: %w", i, err)
		}
		if c < 0 {
			return LaunchStats{}, fmt.Errorf("gpu: kernel item %d reported negative cost %g", i, c)
		}
		costs[i] = c
	}

	ws := d.cfg.WarpSize
	nWarps := (n + ws - 1) / ws
	warpCosts := make([]float64, nWarps)
	for w := 0; w < nWarps; w++ {
		lo := w * ws
		hi := lo + ws
		if hi > n {
			hi = n
		}
		maxLane := 0.0
		for i := lo; i < hi; i++ {
			stats.BusyCost += costs[i]
			if costs[i] > maxLane {
				maxLane = costs[i]
			}
		}
		warpCosts[w] = maxLane
		// Lockstep charges the full warp width for the slowest lane, even
		// for the ragged last warp: inactive lanes still occupy the SIMT
		// unit.
		stats.LockstepCost += maxLane * float64(ws)
	}
	stats.Warps = nWarps
	stats.SimTime = d.cfg.LaunchOverhead + d.makespan(warpCosts)*d.cfg.SecondsPerCost
	return stats, nil
}

// makespan list-schedules the warps onto the device's warp slots (FCFS onto
// the earliest-free slot) and returns the finishing time in cost units.
func (d *Device) makespan(warpCosts []float64) float64 {
	slots := d.WarpSlots()
	if slots >= len(warpCosts) {
		maxCost := 0.0
		for _, c := range warpCosts {
			if c > maxCost {
				maxCost = c
			}
		}
		return maxCost
	}
	h := make(slotHeap, slots)
	heap.Init(&h)
	for _, c := range warpCosts {
		t := h[0]
		h[0] = t + c
		heap.Fix(&h, 0)
	}
	maxT := 0.0
	for _, t := range h {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

type slotHeap []float64

func (h slotHeap) Len() int           { return len(h) }
func (h slotHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *slotHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
