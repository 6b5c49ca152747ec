package bench

import (
	"context"
	"fmt"

	"cwcflow/internal/core"
	"cwcflow/internal/gillespie"
	"cwcflow/internal/models"
	"cwcflow/internal/platform"
	"cwcflow/internal/sim"
)

// Ablations isolate the design choices the paper (and docs/ARCHITECTURE.md,
// "The evaluation substitute") credits for the system's behaviour:
// on-demand vs static scheduling, the simulation-quantum knob, and the SSA
// algorithm choice.

// AblationScheduling compares global on-demand task scheduling against the
// static per-host partition on the Infiniband cluster model, across
// increasing trajectory unevenness. It shows why the shared-memory farm
// uses on-demand dispatch: the gap grows with the imbalance.
func AblationScheduling(seed int64, sc Scale) (*Experiment, error) {
	e := &Experiment{
		ID:     "ablation-scheduling",
		Title:  "On-demand vs static partition (4-host Infiniband cluster)",
		XLabel: "per-trajectory imbalance (lognormal sigma)",
		YLabel: "makespan (s)",
		Notes: []string{
			"lower is better; static partition cannot steal across hosts",
			"persistent per-trajectory speed spread is what static partitioning cannot amortise",
		},
	}
	p := platform.InfinibandCluster(4, 8)
	hostIdx := []int{0, 1, 2, 3}
	// Few trajectories per host: the regime where a statically partitioned
	// farm cannot amortise a straggler (large ensembles average out).
	for _, sigma := range []float64{0.1, 0.3, 0.5, 0.8, 1.2} {
		w := platform.NeurosporaWorkload(sc.traj(48), sc.quanta(20), 10, seed)
		w.TrajSigma = sigma
		for _, static := range []bool{false, true} {
			dep := platform.Deployment{
				SimWorkerHosts:  platform.WorkersPerHost(hostIdx, 8),
				MasterHost:      0,
				StatEngines:     4,
				StaticPartition: static,
			}
			m, err := platform.Simulate(p, w, dep)
			if err != nil {
				return nil, err
			}
			label := "on-demand"
			if static {
				label = "static partition"
			}
			e.Add(label, sigma, m.Makespan)
		}
	}
	return e, nil
}

// AblationQuantum sweeps the simulation quantum on the real shared-memory
// pipeline: results are invariant (checked), while the number of
// scheduling events and the freshness of on-line results change — the
// configuration-level tuning knob of the paper's conclusion.
func AblationQuantum(seed int64) (*Experiment, error) {
	e := &Experiment{
		ID:     "ablation-quantum",
		Title:  "Simulation quantum on the real pipeline (Neurospora, 16 traj)",
		XLabel: "quantum (h of biology)",
		YLabel: "value",
		Notes:  []string{"mean M at run end must be identical for every quantum"},
	}
	factory, err := core.FactoryFor(core.ModelRef{Name: "neurospora", Omega: 50})
	if err != nil {
		return nil, err
	}
	for _, q := range []float64{0.5, 1, 2, 6, 24} {
		cfg := core.Config{
			Factory:      factory,
			Trajectories: 16,
			End:          24,
			Quantum:      q,
			Period:       0.5,
			SimWorkers:   4,
			StatEngines:  2,
			WindowSize:   16,
			BaseSeed:     seed,
		}
		var lastMean float64
		var samples int64
		info, err := core.Run(context.Background(), cfg, func(ws core.WindowStat) error {
			lastMean = ws.PerCut[ws.NumCuts-1][models.NeuroM].Mean
			return nil
		})
		if err != nil {
			return nil, err
		}
		samples = info.Samples
		e.Add("final mean M", q, lastMean)
		e.Add("samples", q, float64(samples))
	}
	return e, nil
}

// AblationSSA compares the direct method against the Gibson–Bruck
// next-reaction method on the real engines, as reactions-per-second over
// networks of growing channel count (a chain of unimolecular conversions):
// NRM's sparse updates win as the network grows.
func AblationSSA() (*Experiment, error) {
	e := &Experiment{
		ID:     "ablation-ssa",
		Title:  "Direct method vs next-reaction method (chain networks)",
		XLabel: "reaction channels",
		YLabel: "relative steps/s (direct@small = 1)",
	}
	var baseline float64
	for _, channels := range []int{4, 16, 64, 256} {
		sys := chainSystem(channels)
		for _, kind := range []string{"direct", "nrm"} {
			var eng interface {
				Step() bool
			}
			var err error
			if kind == "direct" {
				eng, err = gillespie.NewDirect(sys, 1)
			} else {
				eng, err = gillespie.NewNextReaction(sys, 1)
			}
			if err != nil {
				return nil, err
			}
			const steps = 200000
			start := nowNanos()
			for i := 0; i < steps; i++ {
				if !eng.Step() {
					return nil, fmt.Errorf("chain system died")
				}
			}
			rate := float64(steps) / float64(nowNanos()-start)
			if baseline == 0 {
				baseline = rate
			}
			e.Add(kind, float64(channels), rate/baseline)
		}
	}
	return e, nil
}

// chainSystem builds a unimolecular conversion chain A1 → A2 → ... with
// the given number of channels and an inexhaustible head.
func chainSystem(channels int) *gillespie.System {
	n := channels + 1
	species := make([]string, n)
	init := make([]int64, n)
	for i := range species {
		species[i] = fmt.Sprintf("A%d", i)
	}
	init[0] = 1 << 40
	reactions := make([]gillespie.Reaction, 0, channels)
	for i := 0; i < channels; i++ {
		reactions = append(reactions, gillespie.MassAction(
			fmt.Sprintf("hop%d", i), 1e-9,
			map[int]int64{i: 1}, map[int]int64{i + 1: 1}))
	}
	return &gillespie.System{Name: "chain", Species: species, Init: init, Reactions: reactions}
}

// nowNanos is indirected for testability.
var nowNanos = defaultNanos

// AblationRawTap measures the overhead of the raw-results tap (Fig. 2's
// persistent-storage branch) on the real pipeline.
func AblationRawTap(seed int64) (*Experiment, error) {
	e := &Experiment{
		ID:     "ablation-rawtap",
		Title:  "Raw-results tap overhead (real pipeline)",
		XLabel: "tap (0=off, 1=on)",
		YLabel: "samples",
	}
	factory, err := core.FactoryFor(core.ModelRef{Name: "sir"})
	if err != nil {
		return nil, err
	}
	for _, tap := range []bool{false, true} {
		cfg := core.Config{
			Factory:      factory,
			Trajectories: 16,
			End:          50,
			Period:       1,
			SimWorkers:   4,
			StatEngines:  2,
			WindowSize:   16,
			BaseSeed:     seed,
		}
		var tapped int64
		if tap {
			cfg.RawSink = func(sim.Sample) error { tapped++; return nil }
		}
		info, err := core.Run(context.Background(), cfg, nil)
		if err != nil {
			return nil, err
		}
		x := 0.0
		if tap {
			x = 1
			if tapped != info.Samples {
				return nil, fmt.Errorf("tap saw %d of %d samples", tapped, info.Samples)
			}
		}
		e.Add("pipeline samples", x, float64(info.Samples))
	}
	return e, nil
}
