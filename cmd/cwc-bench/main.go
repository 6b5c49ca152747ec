// Command cwc-bench regenerates the paper's evaluation: every figure
// (Fig. 3–6) and Table I, as text tables or CSV. It also carries the
// repo's machine-readable performance reports and the CI bench-regression
// gate.
//
//	cwc-bench -exp all
//	cwc-bench -exp fig3 -format csv
//	cwc-bench -exp table1 -seed 7
//	cwc-bench -exp pr3 -pr3-out BENCH_PR3.json   # stat-farm throughput report
//	cwc-bench -write-baseline BENCH_BASELINE.json
//	cwc-bench -compare BENCH_BASELINE.json       # exits 1 on >20% ns/op or any allocs/op regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cwcflow/internal/bench"
	"cwcflow/internal/buildinfo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cwc-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp           = flag.String("exp", "all", "experiment: fig3, fig4, fig5, fig6top, fig6bottom, table1, ablation, pr3, all")
		format        = flag.String("format", "text", "output format: text or csv")
		seed          = flag.Int64("seed", 1, "workload noise seed")
		quanta        = flag.Int("scale-quanta", 0, "override quanta per trajectory (0 = publication parameters)")
		pr3Out        = flag.String("pr3-out", "BENCH_PR3.json", "output path of the -exp pr3 report")
		writeBaseline = flag.String("write-baseline", "", "measure the pinned hot-path benchmarks and write the baseline to this path")
		compare       = flag.String("compare", "", "measure the pinned hot-path benchmarks and gate against this baseline (exit 1 on regression)")
		tolerance     = flag.Float64("bench-tolerance", 0.20, "allowed fractional ns/op regression in -compare")
		showVersion   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("cwc-bench", buildinfo.Version)
		return nil
	}
	if *writeBaseline != "" || *compare != "" {
		return runBaseline(*writeBaseline, *compare, *tolerance)
	}
	sc := bench.Scale{Quanta: *quanta}
	w := os.Stdout

	writeExp := func(e *bench.Experiment) error {
		defer fmt.Fprintln(w)
		if *format == "csv" {
			return e.WriteCSV(w)
		}
		return e.WriteText(w)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("fig3") {
		ran = true
		for _, engines := range []int{1, 4} {
			e, err := bench.Fig3(engines, *seed, sc)
			if err != nil {
				return err
			}
			if err := writeExp(e); err != nil {
				return err
			}
		}
	}
	if want("fig4") {
		ran = true
		top, bottom, err := bench.Fig4(*seed, sc)
		if err != nil {
			return err
		}
		if err := writeExp(top); err != nil {
			return err
		}
		if err := writeExp(bottom); err != nil {
			return err
		}
	}
	if want("fig5") {
		ran = true
		e, err := bench.Fig5(*seed, sc)
		if err != nil {
			return err
		}
		if err := writeExp(e); err != nil {
			return err
		}
	}
	if want("fig6top") || want("fig6") {
		ran = true
		e, err := bench.Fig6Top(*seed, sc)
		if err != nil {
			return err
		}
		if err := writeExp(e); err != nil {
			return err
		}
	}
	if want("fig6bottom") || want("fig6") {
		ran = true
		e, err := bench.Fig6Bottom(*seed, sc)
		if err != nil {
			return err
		}
		if err := writeExp(e); err != nil {
			return err
		}
	}
	if want("table1") {
		ran = true
		res, err := bench.Table1(*seed, sc)
		if err != nil {
			return err
		}
		if err := writeTable1(w, res, *format); err != nil {
			return err
		}
	}
	if want("ablation") {
		ran = true
		sched, err := bench.AblationScheduling(*seed, sc)
		if err != nil {
			return err
		}
		if err := writeExp(sched); err != nil {
			return err
		}
		quantum, err := bench.AblationQuantum(*seed)
		if err != nil {
			return err
		}
		if err := writeExp(quantum); err != nil {
			return err
		}
		ssa, err := bench.AblationSSA()
		if err != nil {
			return err
		}
		if err := writeExp(ssa); err != nil {
			return err
		}
		tap, err := bench.AblationRawTap(*seed)
		if err != nil {
			return err
		}
		if err := writeExp(tap); err != nil {
			return err
		}
	}
	// The pr3 throughput report runs only when asked for by name: unlike
	// the figures it measures live wall-clock behaviour of this host, so
	// it is a CI artifact step, not part of the "all" figure regeneration.
	if *exp == "pr3" {
		ran = true
		rep, err := bench.PR3()
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*pr3Out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cwc-bench: wrote %s (analysis %.0f windows/sec, %.1f allocs/op; serve 1→4 engines %.2fx)\n",
			*pr3Out, rep.AnalyseWindow.WindowsPerSec, rep.AnalyseWindow.AllocsPerOp, rep.ServeMultiJob.Speedup)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// runBaseline implements -write-baseline and -compare: the CI
// bench-regression gate over the pinned hot-path benchmarks.
func runBaseline(writePath, comparePath string, tolerance float64) error {
	current, err := bench.MeasureBaseline()
	if err != nil {
		return err
	}
	if writePath != "" {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(writePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cwc-bench: wrote baseline %s (%d benchmarks, calibration %.0f ns)\n",
			writePath, len(current.Benchmarks), current.CalibrationNs)
	}
	if comparePath == "" {
		return nil
	}
	data, err := os.ReadFile(comparePath)
	if err != nil {
		return err
	}
	var baseline bench.BaselineReport
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("decoding baseline %s: %w", comparePath, err)
	}
	violations := bench.CompareBaseline(&baseline, current, tolerance)
	for name, pt := range current.Benchmarks {
		base := baseline.Benchmarks[name]
		fmt.Fprintf(os.Stderr, "cwc-bench: %-16s %10.0f ns/op (baseline %10.0f)  %6.1f allocs/op (baseline %.1f)\n",
			name, pt.NsPerOp, base.NsPerOp, pt.AllocsPerOp, base.AllocsPerOp)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "cwc-bench: REGRESSION:", v)
		}
		return fmt.Errorf("bench-regression gate failed: %d violation(s)", len(violations))
	}
	fmt.Fprintln(os.Stderr, "cwc-bench: bench-regression gate passed")
	return nil
}

func writeTable1(w io.Writer, res bench.Table1Result, format string) error {
	if format == "csv" {
		if _, err := fmt.Fprintln(w, "nsims,cpu_q10,cpu_q1,gpu_q10,gpu_q1"); err != nil {
			return err
		}
		for _, r := range res.Rows {
			if _, err := fmt.Fprintf(w, "%d,%.1f,%.1f,%.1f,%.1f\n",
				r.NSims, r.CPUQ10, r.CPUQ1, r.GPUQ10, r.GPUQ1); err != nil {
				return err
			}
		}
		return nil
	}
	return res.WriteText(w)
}
