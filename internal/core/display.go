package core

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// CSVDisplay returns a display sink writing one line per cut with the
// ensemble mean, standard deviation and median of every analysed species:
//
//	time,mean_<name0>,std_<name0>,median_<name0>,mean_<name1>,...
//
// names labels the analysed species in cfg.Species order (falling back to
// s<i> when nil). The header is written on first use.
func CSVDisplay(w io.Writer, names []string) func(WindowStat) error {
	wroteHeader := false
	return func(ws WindowStat) error {
		if !wroteHeader {
			cols := []string{"time"}
			for si := range ws.Species {
				n := fmt.Sprintf("s%d", ws.Species[si])
				if si < len(names) && names[si] != "" {
					n = names[si]
				}
				cols = append(cols, "mean_"+n, "std_"+n, "median_"+n)
			}
			if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
				return err
			}
			wroteHeader = true
		}
		dt := 0.0
		if ws.NumCuts > 1 {
			dt = (ws.TimeHi - ws.TimeLo) / float64(ws.NumCuts-1)
		}
		for k := 0; k < ws.NumCuts; k++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%g", ws.TimeLo+float64(k)*dt)
			for si := range ws.Species {
				m := ws.PerCut[k][si]
				fmt.Fprintf(&sb, ",%g,%g,%g", m.Mean, math.Sqrt(math.Max(m.Var, 0)), ws.Median[k][si])
			}
			if _, err := fmt.Fprintln(w, sb.String()); err != nil {
				return err
			}
		}
		return nil
	}
}
