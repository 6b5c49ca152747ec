package stats

import (
	"math/rand"
	"testing"
)

func flatten(points [][]float64) ([]float64, int, int) {
	dim := len(points[0])
	flat := make([]float64, 0, len(points)*dim)
	for _, p := range points {
		flat = append(flat, p...)
	}
	return flat, len(points), dim
}

func clusteredPoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		points = append(points, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < n; i++ {
		points = append(points, []float64{30 + rng.NormFloat64(), 30 + rng.NormFloat64()})
	}
	return points
}

// TestKMeansFlatMatchesKMeans pins that an engine and a result reused
// across runs cluster exactly as a fresh engine and result do (this
// guards the result-reuse plumbing).
func TestKMeansFlatMatchesKMeans(t *testing.T) {
	points := clusteredPoints(40, 5)
	ref, err := kmeans(points, 2, 9, 100)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	flat, n, dim := flatten(points)
	var res KMeansResult
	for run := 0; run < 3; run++ { // cover the buffer-reuse path
		if err := e.KMeansFlat(&res, flat, n, dim, 2, 9, 100); err != nil {
			t.Fatal(err)
		}
	}
	if res.Inertia != ref.Inertia || res.Iterations != ref.Iterations {
		t.Fatalf("flat: inertia %g/%d iters, want %g/%d", res.Inertia, res.Iterations, ref.Inertia, ref.Iterations)
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			t.Fatalf("assign[%d] = %d, want %d", i, res.Assign[i], ref.Assign[i])
		}
	}
	for j := range ref.Centroids {
		for d := range ref.Centroids[j] {
			if res.Centroids[j][d] != ref.Centroids[j][d] {
				t.Fatalf("centroid[%d][%d] = %g, want %g", j, d, res.Centroids[j][d], ref.Centroids[j][d])
			}
		}
	}
}

// TestKMeansFlatAllocationFree pins the engine property: clustering into a
// reused result with a warmed engine allocates nothing.
func TestKMeansFlatAllocationFree(t *testing.T) {
	points := clusteredPoints(128, 3)
	flat, n, dim := flatten(points)
	e := NewEngine()
	var res KMeansResult
	if err := e.KMeansFlat(&res, flat, n, dim, 4, 1, 100); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.KMeansFlat(&res, flat, n, dim, 4, 1, 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("KMeansFlat allocates %.1f times per run in steady state, want 0", allocs)
	}
}

// TestEnginePeriodMatchesPeriod pins that the engine's buffered period
// detector computes exactly what the allocating package function computes.
func TestEnginePeriodMatchesPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewEngine()
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 60)
		for i := range xs {
			xs[i] = 10*float64(i%9) + rng.Float64()
		}
		for _, hw := range []int{0, 1, 3} {
			wantP, wantOK := Period(xs, 0.5, hw)
			gotP, gotOK := e.Period(xs, 0.5, hw)
			if gotP != wantP || gotOK != wantOK {
				t.Fatalf("halfWin=%d: engine period (%g,%v), want (%g,%v)", hw, gotP, gotOK, wantP, wantOK)
			}
		}
	}
}

func TestEnginePeriodAllocationFree(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(10 * (i % 11))
	}
	e := NewEngine()
	e.Period(xs, 0.5, 2)
	allocs := testing.AllocsPerRun(50, func() { e.Period(xs, 0.5, 2) })
	if allocs != 0 {
		t.Fatalf("Engine.Period allocates %.1f times per run, want 0", allocs)
	}
}

// TestKMeansFlatValidation covers the flat-path error surface.
func TestKMeansFlatValidation(t *testing.T) {
	e := NewEngine()
	var res KMeansResult
	if err := e.KMeansFlat(&res, nil, 0, 1, 2, 1, 10); err == nil {
		t.Fatal("empty point set accepted")
	}
	if err := e.KMeansFlat(&res, []float64{1}, 1, 1, 0, 1, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := e.KMeansFlat(&res, []float64{1, 2, 3}, 2, 2, 1, 1, 10); err == nil {
		t.Fatal("mis-sized flat buffer accepted")
	}
	// k > n clamps; identical points give zero inertia.
	if err := e.KMeansFlat(&res, []float64{3, 3, 3}, 3, 1, 5, 1, 10); err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 || res.Inertia != 0 {
		t.Fatalf("clamped identical points: %d centroids, inertia %g", len(res.Centroids), res.Inertia)
	}
}
