// Command svcbench is the service benchmark: it builds the real cwc-serve
// and cwc-dist binaries, runs them as child processes, drives them over
// HTTP and NDJSON streams in a closed loop of two clients, checks window
// digests against a single-threaded in-process reference, and prints every
// metric by name with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed      = flag.Int64("seed", 1, "seed of the generated job lists")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of each workload's measured phase")
		trace     = flag.Int("trace", 0, "1 adds the traced replay and the layer timings, and makes the result line carry the per-layer metrics")
		out       = flag.String("out", "", "directory for trace files and temporary data (default: out/ beside this program's source)")
		selfcheck = flag.Bool("selfcheck", false, "run the set twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, *name, *out, *selfcheck, runConfig{
		seed: *seed, seconds: *seconds, setups: 3, setupBudget: time.Second, trace: *trace != 0,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run makes the requested passes and prints the report. ok is false when
// an output was wrong, an operation failed, or the self-check disagreed.
func run(ctx context.Context, name, out string, selfcheck bool, cfg runConfig) (ok bool, err error) {
	selected := workloads
	if name != "" {
		w, found := workloadByName(name)
		if !found {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	e := env{bin: filepath.Join(root, ".bench_build", "bin"), out: out}
	if e.out == "" {
		e.out = filepath.Join(root, "svcbench", "out")
	}
	if err := buildChildren(ctx, root, e.bin); err != nil {
		return false, err
	}
	printHeader(root, cfg)
	if cfg.trace {
		if cfg.layers, err = measureLayers(e, 100*time.Millisecond); err != nil {
			return false, err
		}
	}

	pass := func() ([]*result, error) {
		var results []*result
		for _, w := range selected {
			res, err := runWorkload(ctx, e, w, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(res)
			results = append(results, res)
		}
		return results, nil
	}
	results, err := pass()
	if err != nil {
		return false, err
	}
	ok = true
	for _, res := range results {
		ok = ok && res.correct()
	}
	if selfcheck {
		fmt.Println("\n# selfcheck: second set")
		again, err := pass()
		if err != nil {
			return false, err
		}
		for i, res := range again {
			ok = ok && res.correct() && agree(results[i], res)
		}
	}

	// The last line is the machine-readable result: the driver's object for
	// a single workload (end-to-end metrics untraced, per-layer metrics
	// traced), a summary with everything measured for a set.
	var line any
	if name != "" {
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		line = resultLine(results[0], defs)
	} else {
		defs := endToEnd
		if cfg.trace {
			defs = append(append([]metricDef{}, endToEnd...), perLayer...)
		}
		byName := map[string]any{}
		for _, res := range results {
			byName[res.Workload] = resultLine(res, defs)
		}
		// This change defines the benchmark; it claims no gain.
		line = map[string]any{"claim": nil, "seed": cfg.seed, "seconds": cfg.seconds, "workloads": byName}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	return ok, nil
}

// resultLine is the object the driver reads: whether the outputs were
// right, the operation counts, and the metrics defs names.
func resultLine(res *result, defs []metricDef) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	have := map[string]metric{}
	for _, m := range res.EndToEnd {
		have[m.Name] = m
	}
	for _, m := range res.Layers {
		have[m.Name] = m
	}
	metrics := map[string]value{}
	for _, d := range defs {
		if m, ok := have[d.name]; ok {
			metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	return map[string]any{
		"correct":   res.correct() && len(metrics) == len(defs),
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

// agree compares two passes of the same commit: each end-to-end metric of
// the second must be within its bound of the first, in the direction that
// counts as worse. Both values are printed either way.
func agree(first, second *result) bool {
	ok := true
	for i, d := range endToEnd {
		if i >= len(first.EndToEnd) || i >= len(second.EndToEnd) {
			return false
		}
		a, b := first.EndToEnd[i].Value, second.EndToEnd[i].Value
		worse := (b - a) / a
		if d.better == "higher" {
			worse = (a - b) / a
		}
		verdict := "ok"
		if worse > d.bound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Printf("selfcheck %-20s %-18s %14.4f %14.4f %+7.2f%% (bound %.0f%%) %s\n",
			first.Workload, d.name, a, b, 100*worse, 100*d.bound, verdict)
	}
	return ok
}

// printHeader records what two reports must share to be comparable.
func printHeader(root string, cfg runConfig) {
	commit := "unknown (not a git checkout)"
	git := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	// Never look for a repository above the checkout.
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if outp, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(outp))
	}
	fmt.Printf("# svcbench  nproc=%d  %s  commit=%s  seed=%d  seconds=%g  clients=%d  warmups=%d  trace=%t\n",
		runtime.NumCPU(), runtime.Version(), commit, cfg.seed, cfg.seconds, clients, warmups, cfg.trace)
}

func printResult(res *result) {
	fmt.Printf("\n## %s  jobs=%d\n", res.Workload, res.Attempted)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println("# " + title)
		for _, m := range ms {
			note := ""
			if m.Note != "" {
				note = "  # " + m.Note
			}
			fmt.Printf("%-32s %16.4f %-10s%s\n", m.Name, m.Value, m.Unit, note)
		}
	}
	section("end to end", res.EndToEnd)
	section("diagnostics and stage budget", res.Diag)
	section("per layer", res.Layers)
	for _, p := range res.Problems {
		fmt.Println("PROBLEM:", p)
	}
}
