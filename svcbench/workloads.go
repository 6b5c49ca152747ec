package main

import "cwcflow/internal/serve"

// clients is the closed loop's width: two callers, each waiting for its
// job's last window before submitting the next, on two keep-alive
// connections. It equals nproc on the reference box, so the load generator
// never needs more connections than there are cores to serve them.
const clients = 2

// warmups is the number of untimed jobs each fresh server runs before the
// clock starts, so lazy set-up (model compilation, pools, the journal's
// first frames) is paid in setup_s and not in the latencies.
const warmups = 3

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	// why is the one line BENCHMARK.json carries: what the workload stresses
	// and what it leaves idle.
	why string
	// simWorkers and statEngines size the cwc-serve child.
	simWorkers, statEngines int
	// durable gives the server a fresh temporary -data-dir.
	durable bool
	// remote adds one cwc-dist worker (-sim-workers 1) the server shards
	// trajectory quanta onto.
	remote bool
	// spec returns job i of the list generated from seed. Negative indices
	// are the warm-up jobs. The server sees only these specs, never the seed.
	spec func(seed int64, i int) serve.JobSpec
	// repeatOf, when set, returns the index of the earlier job whose spec
	// job i resubmits, or -1: such a job must be answered from the result
	// cache with the stream the earlier job got.
	repeatOf func(seed int64, i int) int
}

// repeats is repeatOf for any workload: -1 where nothing repeats.
func (w workload) repeats(seed int64, i int) int {
	if w.repeatOf == nil {
		return -1
	}
	return w.repeatOf(seed, i)
}

var workloads = []workload{
	{
		name:       "sim-heavy.local",
		why:        "neurospora, 64 trajectories, tumbling windows, no k-means: simulation quanta fill the pool and the window, stats and store layers stay almost idle",
		simWorkers: 2, statEngines: 2,
		spec: simHeavySpec,
	},
	{
		name:       "stats-heavy.local",
		why:        "sir, 256 cheap trajectories, window 16 step 1 with k-means and period detection: alignment, analysis, reorder and NDJSON publish dominate, simulation is a tenth",
		simWorkers: 2, statEngines: 2,
		spec: func(seed int64, i int) serve.JobSpec {
			return serve.JobSpec{Model: "sir", Omega: 100, Trajectories: 256, End: 5, Period: 0.05,
				WindowSize: 16, WindowStep: 1, KMeansK: 8, PeriodHalfWin: 2, Seed: jobSeed(seed, i)}
		},
	},
	{
		name:       "small-jobs.durable",
		why:        "millisecond sir jobs against -data-dir, a quarter repeating a finished spec: admission, digest, WAL append and fsync, HTTP and cache reads dominate; the latency workload",
		simWorkers: 2, statEngines: 2, durable: true,
		spec: smallJobSpec, repeatOf: repeatOf,
	},
	{
		name:       "sharded.remote",
		why:        "the sim-heavy job list on a 1-worker server plus one cwc-dist worker: same work, so the difference is the cost of gob encoding and remote dispatch",
		simWorkers: 1, statEngines: 1, remote: true,
		spec: simHeavySpec,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix is splitmix64 over (seed, i): the only randomness of the generator.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(i))*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jobSeed gives job i its RNG base seed. Seeds are spaced wider than any
// ensemble (trajectory t runs on seed+t), so two jobs never share a
// trajectory, and are distinct by construction, so only the deliberate
// repeats of small-jobs.durable can hit the result cache.
func jobSeed(seed int64, i int) int64 {
	base := int64(1)<<40 + int64(mix(seed, 0)>>25)
	return base + int64(i)*4096
}

func simHeavySpec(seed int64, i int) serve.JobSpec {
	return serve.JobSpec{Model: "neurospora", Omega: 100, Trajectories: 64, End: 48, Period: 0.5,
		WindowSize: 16, Seed: jobSeed(seed, i)}
}

// Repeats in small-jobs.durable look back between repeatNear and repeatFar
// positions: far enough that the original has finished on a two-client
// loop (a repeat of a running job attaches instead, which is still a hit),
// near enough that the server still retains it (-max-completed 256).
const (
	repeatNear = 8
	repeatFar  = 63
)

// repeatOf returns the index of the earlier job that job i resubmits, or
// -1 when job i is a fresh spec. One submission in four repeats.
func repeatOf(seed int64, i int) int {
	isRepeat := func(i int) bool { return i > repeatFar && mix(seed, i)%4 == 0 }
	if !isRepeat(i) {
		return -1
	}
	j := i - repeatNear - int(mix(seed, -i)%(repeatFar-repeatNear+1))
	for isRepeat(j) {
		j--
	}
	return j
}

func smallJobSpec(seed int64, i int) serve.JobSpec {
	if j := repeatOf(seed, i); j >= 0 {
		i = j
	}
	return serve.JobSpec{Model: "sir", Omega: 100, Trajectories: 16, End: 12, Period: 0.5,
		WindowSize: 8, Seed: jobSeed(seed, i)}
}
