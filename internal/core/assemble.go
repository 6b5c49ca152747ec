package core

import "cwcflow/internal/stats"

// CutFrontier splits the per-cut work of a stream of overlapping windows so
// that every cut is summarised exactly once. Visit the windows of one run
// in window order; Fresh answers how many trailing cuts of each no earlier
// window of the run covered — those are the window's to summarise. That is
// every cut of the first window (of a run, or of a run resumed at any cut:
// the zero value is ready for both), every cut when windows do not overlap
// (step ≥ size), step cuts in the steady state of a sliding stream, and
// whatever the frontier left uncovered for the flushed trailing window.
//
// The stage that hands windows to a stat farm keeps the frontier; the count
// travels with the window to its engine (AnalyseWindowFresh) and with the
// result to the Assembler behind the farm.
type CutFrontier struct {
	next int // absolute index of the first cut no window has covered yet
}

// Fresh returns the number of trailing cuts of the window [start,
// start+numCuts) that lie at or beyond the frontier, and advances the
// frontier past the window. In-order windows never end before the last
// one did.
func (f *CutFrontier) Fresh(start, numCuts int) int {
	end := start + numCuts
	lo := max(f.next, start)
	f.next = end
	return end - lo
}

// Assembler completes the WindowStats of AnalyseWindowFresh. It sees the
// windows of one run in window order — behind the ordered gather of a stat
// farm — remembers each window's fresh cut summaries in a ring of the last
// WindowSize cuts keyed by absolute cut index, and fills every older row of
// a window by value from the ring. An assembled WindowStat is
// indistinguishable from AnalyseWindowInto's, shares no storage with any
// other, and is what gets published, journaled and cached: nothing
// downstream of the Assembler knows windows were analysed incrementally.
//
// Not safe for concurrent use; the zero value is not usable.
type Assembler struct {
	ring []cutSummary // cut i lives in ring[i%len(ring)]
}

// cutSummary is one cut's PerCut and Median rows.
type cutSummary struct {
	moments []stats.Moments
	median  []float64
}

// NewAssembler returns an assembler for windows of at most windowSize cuts.
func NewAssembler(windowSize int) *Assembler {
	return &Assembler{ring: make([]cutSummary, max(windowSize, 1))}
}

// Assemble fills the rows AnalyseWindowFresh left unset in ws, given the
// fresh count ws was analysed with. Call it exactly once per window, in
// window order, with the windows of one run. Once every ring slot has been
// used it does not allocate.
func (a *Assembler) Assemble(ws *WindowStat, fresh int) {
	n := ws.NumCuts
	for k := 0; k < n; k++ {
		// A slot is overwritten only by a cut a whole ring further on, which
		// no window that still needs the old one can contain.
		s := &a.ring[(ws.Start+k)%len(a.ring)]
		if k >= n-fresh {
			s.moments = append(s.moments[:0], ws.PerCut[k]...)
			s.median = append(s.median[:0], ws.Median[k]...)
		} else {
			copy(ws.PerCut[k], s.moments)
			copy(ws.Median[k], s.median)
		}
	}
}
