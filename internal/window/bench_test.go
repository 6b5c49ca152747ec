package window

import (
	"testing"

	"cwcflow/internal/sim"
)

// BenchmarkAligner times one full cut assembly (64 pushes → one emitted
// cut) on the ring-buffer aligner with storage recycling — the
// steady-state alignment cost of a 64-trajectory ensemble.
func BenchmarkAligner(b *testing.B) {
	const nTraj = 64
	a, err := NewAlignerAt(nTraj, 0)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(c Cut) error { a.Recycle(c); return nil }
	state := []int64{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for traj := 0; traj < nTraj; traj++ {
			if err := a.Push(sim.Sample{Traj: traj, Index: i, Time: float64(i), State: state}, emit); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStream times the fused align→window stage per cut (64
// trajectories, sliding windows of 16 advancing by 4), including cut
// recycling once windows slide past.
func BenchmarkStream(b *testing.B) {
	const nTraj = 64
	st, err := NewStream(nTraj, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(Window) error { return nil }
	state := []int64{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for traj := 0; traj < nTraj; traj++ {
			if err := st.Push(sim.Sample{Traj: traj, Index: i, Time: float64(i), State: state}, emit); err != nil {
				b.Fatal(err)
			}
		}
	}
}
