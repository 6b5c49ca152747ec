package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	// Two-pass reference.
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %g vs %g", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-9 {
		t.Fatalf("var %g vs %g", w.Var(), variance)
	}
	if w.N() != 1000 {
		t.Fatalf("n = %d", w.N())
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Var() != 0 || w.Min() != 5 || w.Max() != 5 {
		t.Fatal("single observation wrong")
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordProperty_MergeEquivalent(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var wa, wb, all Welford
		for _, x := range a {
			wa.Add(x)
			all.Add(x)
		}
		for _, x := range b {
			wb.Add(x)
			all.Add(x)
		}
		wa.Merge(wb)
		if wa.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		if math.Abs(wa.Mean()-all.Mean()) > 1e-8*scale {
			return false
		}
		vscale := math.Max(1, all.Var())
		return math.Abs(wa.Var()-all.Var()) <= 1e-6*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("q > 1 accepted")
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.9, -3, 42} {
		h.Add(x)
	}
	want := []int64{3, 1, 1, 0, 2} // -3 and 0,1.9 in bin0; 42 clamps to bin4
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d = %d, want %d (all: %v)", i, c, want[i], h.Counts)
		}
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	if _, err := NewHistogram(3, 3, 4); err == nil {
		t.Fatal("degenerate range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
}

// kmeans clusters points with KMeansFlat on an engine of its own.
func kmeans(points [][]float64, k int, seed int64, maxIter int) (KMeansResult, error) {
	var res KMeansResult
	if len(points) == 0 {
		return res, NewEngine().KMeansFlat(&res, nil, 0, 1, k, seed, maxIter)
	}
	flat, n, dim := flatten(points)
	err := NewEngine().KMeansFlat(&res, flat, n, dim, k, seed, maxIter)
	return res, err
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	var points [][]float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		points = append(points, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
	}
	for i := 0; i < 50; i++ {
		points = append(points, []float64{20 + rng.NormFloat64()*0.5, 20 + rng.NormFloat64()*0.5})
	}
	res, err := kmeans(points, 2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// All of the first 50 in one cluster, all of the last 50 in the other.
	c0 := res.Assign[0]
	for i := 0; i < 50; i++ {
		if res.Assign[i] != c0 {
			t.Fatalf("point %d escaped cluster %d", i, c0)
		}
	}
	c1 := res.Assign[50]
	if c1 == c0 {
		t.Fatal("two obvious clusters merged")
	}
	for i := 50; i < 100; i++ {
		if res.Assign[i] != c1 {
			t.Fatalf("point %d escaped cluster %d", i, c1)
		}
	}
}

func TestKMeansDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var points [][]float64
	for i := 0; i < 100; i++ {
		points = append(points, []float64{rng.Float64() * 10})
	}
	a, err := kmeans(points, 3, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kmeans(points, 3, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed, different inertia")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := kmeans(nil, 2, 1, 10); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := kmeans([][]float64{{1}}, 0, 1, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	// k > n clamps.
	res, err := kmeans([][]float64{{1}, {2}}, 5, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d, want 2", len(res.Centroids))
	}
	// Identical points: zero inertia.
	res, err = kmeans([][]float64{{3}, {3}, {3}}, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia = %g, want 0", res.Inertia)
	}
}

// Property: k-means assignment is locally optimal — every point is at
// least as close to its own centroid as to any other.
func TestKMeansProperty_AssignmentOptimal(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 2
		k := int(kRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
		}
		res, err := kmeans(points, k, seed, 100)
		if err != nil {
			return false
		}
		for i, p := range points {
			own := sqDist(p, res.Centroids[res.Assign[i]])
			for _, c := range res.Centroids {
				if sqDist(p, c) < own-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{0, 10, 0, 10, 0}
	sm := MovingAverage(xs, 1)
	want := []float64{5, 10.0 / 3, 20.0 / 3, 10.0 / 3, 5}
	for i := range want {
		if math.Abs(sm[i]-want[i]) > 1e-12 {
			t.Fatalf("sm[%d] = %g, want %g", i, sm[i], want[i])
		}
	}
	if got := MovingAverage(xs, 0); !equalSlices(got, xs) {
		t.Fatal("halfWin=0 must be identity")
	}
}

func TestPeriodOnSinusoid(t *testing.T) {
	const dt = 0.25
	var xs []float64
	for tt := 0.0; tt < 100; tt += dt {
		xs = append(xs, math.Sin(2*math.Pi*tt/8)) // period 8
	}
	p, ok := Period(xs, dt, 4)
	if !ok {
		t.Fatal("no period found on a pure sinusoid")
	}
	if math.Abs(p-8) > 0.5 {
		t.Fatalf("period = %g, want 8 +- 0.5", p)
	}
}

func TestPeriodTooFewPeaks(t *testing.T) {
	if _, ok := Period([]float64{1, 2, 3, 2, 1}, 1, 1); ok {
		t.Fatal("found a period on a single bump")
	}
	if _, ok := Period(nil, 1, 1); ok {
		t.Fatal("found a period on empty series")
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 97))
	}
}

func BenchmarkKMeans1024x2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([][]float64, 1024)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans(points, 4, 1, 50); err != nil {
			b.Fatal(err)
		}
	}
}
