// Package stats provides the statistical engines of the on-line analysis
// pipeline: streaming moments (Welford), exact quantiles, histograms,
// k-means clustering of trajectory ensembles, moving averages and
// oscillation-period estimation.
//
// These are the "mean / variance / k-means" filters of the paper's
// analysis stage (Fig. 2): each operates on a single cut or on a sliding
// window of cuts, independently of every other cut/window, which is what
// makes the analysis stage farm-parallel.
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Welford is a numerically stable streaming accumulator for mean and
// variance. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		w.min = math.Min(w.min, x)
		w.max = math.Max(w.max, x)
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddN folds n observations of the same value x into the accumulator.
func (w *Welford) AddN(x float64, n int64) {
	w.Merge(Welford{n: n, mean: x, min: x, max: x})
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2
// observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 with none).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 with none).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w (parallel reduction of
// partial statistics, Chan et al.).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.min = math.Min(w.min, o.min)
	w.max = math.Max(w.max, o.max)
	w.n = n
}

// Moments is a value snapshot of a Welford accumulator.
type Moments struct {
	N                   int64
	Mean, Var, Min, Max float64
}

// Snapshot returns the accumulated moments.
func (w *Welford) Snapshot() Moments {
	return Moments{N: w.n, Mean: w.Mean(), Var: w.Var(), Min: w.min, Max: w.max}
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	sorted := append([]float64(nil), xs...)
	return QuantileInPlace(sorted, q)
}

// QuantileInPlace is Quantile without the defensive copy: it sorts xs in
// place, so callers that own a scratch buffer (the statistical engines do)
// compute quantiles allocation-free.
func QuantileInPlace(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo], nil
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac, nil
}

// Histogram counts observations into equal-width bins over [lo, hi);
// values outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
}

// NewHistogram returns a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: need >= 1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid histogram range [%g, %g)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	bin := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
}

// Total returns the number of observations counted.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// KMeansResult is the outcome of a k-means clustering.
type KMeansResult struct {
	// Centroids are the final cluster centres.
	Centroids [][]float64
	// Assign maps each input point to its centroid index.
	Assign []int
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
	// Iterations actually run.
	Iterations int
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// MovingAverage smooths xs with a centred window of 2*halfWin+1 samples
// (shrunk at the borders).
func MovingAverage(xs []float64, halfWin int) []float64 {
	if halfWin < 0 {
		halfWin = 0
	}
	out := make([]float64, len(xs))
	movingAverageInto(out, xs, halfWin)
	return out
}

// Peaks returns the indices of local maxima of xs after smoothing with a
// centred window of 2*halfWin+1. Peaks closer than halfWin samples are
// merged (first wins).
func Peaks(xs []float64, halfWin int) []int {
	if len(xs) == 0 {
		return nil
	}
	if halfWin < 0 {
		halfWin = 0
	}
	sm := MovingAverage(xs, halfWin)
	return peaksInto(nil, sm, halfWin)
}

// Period estimates the oscillation period of the series xs sampled every
// dt time units, as the mean gap between detected peaks. ok is false when
// fewer than two peaks are found. Engine.Period is the allocation-free
// equivalent.
func Period(xs []float64, dt float64, halfWin int) (period float64, ok bool) {
	peaks := Peaks(xs, halfWin)
	if len(peaks) < 2 {
		return 0, false
	}
	gap := float64(peaks[len(peaks)-1]-peaks[0]) / float64(len(peaks)-1)
	return gap * dt, true
}
