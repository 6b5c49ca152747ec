package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cwcflow/internal/sim"
)

func mkSample(traj, idx int, v int64) sim.Sample {
	return sim.Sample{Traj: traj, Index: idx, Time: float64(idx), State: []int64{v}}
}

func TestAlignerEmitsInOrder(t *testing.T) {
	a, err := NewAlignerAt(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []Cut
	emit := func(c Cut) error { got = append(got, c); return nil }

	// Trajectory 0 runs ahead; cut 0 completes only when traj 1 catches up.
	must(t, a.Push(mkSample(0, 0, 10), emit))
	must(t, a.Push(mkSample(0, 1, 11), emit))
	must(t, a.Push(mkSample(0, 2, 12), emit))
	if len(got) != 0 {
		t.Fatalf("premature cuts: %d", len(got))
	}
	if a.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", a.Pending())
	}
	must(t, a.Push(mkSample(1, 0, 20), emit))
	if len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("cut 0 not released: %v", got)
	}
	must(t, a.Push(mkSample(1, 1, 21), emit))
	must(t, a.Push(mkSample(1, 2, 22), emit))
	if len(got) != 3 {
		t.Fatalf("cuts = %d, want 3", len(got))
	}
	for k, c := range got {
		if c.Index != k {
			t.Fatalf("cut order broken: %v", c)
		}
		if c.States[0][0] != int64(10+k) || c.States[1][0] != int64(20+k) {
			t.Fatalf("cut %d content wrong: %v", k, c.States)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAlignerRejectsBadSamples(t *testing.T) {
	a, _ := NewAlignerAt(2, 0)
	emit := func(Cut) error { return nil }
	if err := a.Push(mkSample(5, 0, 1), emit); err == nil {
		t.Fatal("unknown trajectory accepted")
	}
	must(t, a.Push(mkSample(0, 0, 1), emit))
	if err := a.Push(mkSample(0, 0, 1), emit); err == nil {
		t.Fatal("duplicate sample accepted")
	}
	// Complete and emit cut 0, then a stale re-delivery must fail.
	must(t, a.Push(mkSample(1, 0, 2), emit))
	if err := a.Push(mkSample(0, 0, 1), emit); err == nil {
		t.Fatal("stale sample (already emitted cut) accepted")
	}
}

func TestAlignerCloseDetectsIncomplete(t *testing.T) {
	a, _ := NewAlignerAt(3, 0)
	emit := func(Cut) error { return nil }
	must(t, a.Push(mkSample(0, 0, 1), emit))
	if err := a.Close(); err == nil {
		t.Fatal("Close accepted incomplete stream")
	}
}

func TestAlignerSingleTrajectory(t *testing.T) {
	a, _ := NewAlignerAt(1, 0)
	n := 0
	emit := func(c Cut) error { n++; return nil }
	for k := 0; k < 5; k++ {
		must(t, a.Push(mkSample(0, k, int64(k)), emit))
	}
	if n != 5 || a.EmittedCuts() != 5 {
		t.Fatalf("cuts = %d (emitted %d), want 5", n, a.EmittedCuts())
	}
}

// Property: for any interleaving of per-trajectory-ordered samples, the
// aligner emits all cuts exactly once, in order, with the right contents.
func TestAlignerProperty_AnyInterleaving(t *testing.T) {
	f := func(seed int64, nTrajRaw, nCutsRaw uint8) bool {
		nTraj := int(nTrajRaw%5) + 1
		nCuts := int(nCutsRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		// Build per-trajectory queues and a random fair interleaving.
		next := make([]int, nTraj)
		var order []int
		for len(order) < nTraj*nCuts {
			tr := rng.Intn(nTraj)
			if next[tr] < nCuts {
				order = append(order, tr)
				next[tr]++
			}
		}
		for i := range next {
			next[i] = 0
		}
		a, err := NewAlignerAt(nTraj, 0)
		if err != nil {
			return false
		}
		var cuts []Cut
		for _, tr := range order {
			idx := next[tr]
			next[tr]++
			err := a.Push(mkSample(tr, idx, int64(100*tr+idx)), func(c Cut) error {
				cuts = append(cuts, c)
				return nil
			})
			if err != nil {
				return false
			}
		}
		if a.Close() != nil || len(cuts) != nCuts {
			return false
		}
		for k, c := range cuts {
			if c.Index != k {
				return false
			}
			for tr := 0; tr < nTraj; tr++ {
				if c.States[tr][0] != int64(100*tr+k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mkCut(idx int, vals ...int64) Cut {
	states := make([][]int64, len(vals))
	for i, v := range vals {
		states[i] = []int64{v}
	}
	return Cut{Index: idx, Time: float64(idx), States: states}
}

func TestSliderFullWindows(t *testing.T) {
	s, err := NewSliderAt(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wins []Window
	for k := 0; k < 5; k++ {
		must(t, s.Push(mkCut(k, int64(k)), func(w Window) error {
			wins = append(wins, w)
			return nil
		}))
	}
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	for i, w := range wins {
		if w.Start != i || len(w.Cuts) != 3 || w.Cuts[0].Index != i {
			t.Fatalf("window %d wrong: start=%d cuts=%d", i, w.Start, len(w.Cuts))
		}
	}
}

func TestSliderTumbling(t *testing.T) {
	s, err := NewSliderAt(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wins []Window
	emit := func(w Window) error { wins = append(wins, w); return nil }
	for k := 0; k < 6; k++ {
		must(t, s.Push(mkCut(k, 0), emit))
	}
	if len(wins) != 3 {
		t.Fatalf("tumbling windows = %d, want 3", len(wins))
	}
	for i, w := range wins {
		if w.Start != 2*i {
			t.Fatalf("window %d start = %d, want %d", i, w.Start, 2*i)
		}
	}
	if err := s.Flush(emit); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 3 {
		t.Fatal("Flush emitted a window with no leftover cuts")
	}
}

func TestSliderFlushEmitsTail(t *testing.T) {
	s, _ := NewSliderAt(4, 4, 0)
	var wins []Window
	emit := func(w Window) error { wins = append(wins, w); return nil }
	for k := 0; k < 6; k++ { // one full window + 2 leftover cuts
		must(t, s.Push(mkCut(k, 0), emit))
	}
	must(t, s.Flush(emit))
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2 (full + tail)", len(wins))
	}
	if len(wins[1].Cuts) != 2 || wins[1].Start != 4 {
		t.Fatalf("tail window wrong: start=%d cuts=%d", wins[1].Start, len(wins[1].Cuts))
	}
}

func TestSliderRejectsGaps(t *testing.T) {
	s, _ := NewSliderAt(2, 1, 0)
	emit := func(Window) error { return nil }
	must(t, s.Push(mkCut(0, 0), emit))
	if err := s.Push(mkCut(2, 0), emit); err == nil {
		t.Fatal("gap in cut indices accepted")
	}
}

func TestSliderValidation(t *testing.T) {
	if _, err := NewSliderAt(0, 1, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewSliderAt(2, 3, 0); err == nil {
		t.Fatal("step > size accepted")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlignerRejectsOutOfRangeTrajectory: every out-of-range trajectory
// index — negative or ≥ ensemble size — must error without touching any
// cut state (the ring rewrite must not index the arena with it first).
func TestAlignerRejectsOutOfRangeTrajectory(t *testing.T) {
	a, _ := NewAlignerAt(3, 0)
	emit := func(Cut) error { t.Fatal("cut emitted from rejected samples"); return nil }
	for _, traj := range []int{-1, -100, 3, 4, 1 << 30} {
		if err := a.Push(sim.Sample{Traj: traj, Index: 0, State: []int64{1}}, emit); err == nil {
			t.Fatalf("trajectory %d accepted (ensemble of 3)", traj)
		}
	}
	if a.Pending() != 0 {
		t.Fatalf("rejected samples left %d pending cuts", a.Pending())
	}
	// A negative sample index must be rejected too (it would otherwise
	// index the ring with a bogus offset).
	if err := a.Push(sim.Sample{Traj: 0, Index: -1, State: []int64{1}}, emit); err == nil {
		t.Fatal("negative sample index accepted")
	}
	// Mismatched state width corrupts the flat cut arena: reject.
	ok := func(Cut) error { return nil }
	must(t, a.Push(sim.Sample{Traj: 0, Index: 0, State: []int64{1}}, ok))
	if err := a.Push(sim.Sample{Traj: 1, Index: 0, State: []int64{1, 2}}, ok); err == nil {
		t.Fatal("mismatched state width accepted")
	}
}

// TestAlignerRingGrowth: a dead trajectory floods the aligner with its
// whole frozen tail at once — a spread far beyond the initial ring — and
// every cut must still come out exactly once, in order, intact.
func TestAlignerRingGrowth(t *testing.T) {
	const nCuts = 300 // ≫ initial ring size
	a, _ := NewAlignerAt(2, 0)
	var got []Cut
	emit := func(c Cut) error {
		got = append(got, Cut{Index: c.Index, Time: c.Time, States: [][]int64{
			append([]int64(nil), c.States[0]...),
			append([]int64(nil), c.States[1]...),
		}})
		return nil
	}
	// Trajectory 0 delivers everything first (the dead-task flood)...
	for k := 0; k < nCuts; k++ {
		must(t, a.Push(sim.Sample{Traj: 0, Index: k, Time: float64(k), State: []int64{int64(k)}}, emit))
	}
	if a.Pending() != nCuts {
		t.Fatalf("pending = %d, want %d", a.Pending(), nCuts)
	}
	// ...then trajectory 1 trickles in, releasing cuts one by one.
	for k := 0; k < nCuts; k++ {
		must(t, a.Push(sim.Sample{Traj: 1, Index: k, Time: float64(k), State: []int64{int64(-k)}}, emit))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != nCuts {
		t.Fatalf("emitted %d cuts, want %d", len(got), nCuts)
	}
	for k, c := range got {
		if c.Index != k || c.States[0][0] != int64(k) || c.States[1][0] != int64(-k) {
			t.Fatalf("cut %d corrupted: %+v", k, c)
		}
	}
}

// TestAlignerRecycleReusesStorage: recycled cut storage must back later
// cuts (bounding steady-state allocation) without corrupting contents,
// and recycling foreign cuts must be a safe no-op.
func TestAlignerRecycleReusesStorage(t *testing.T) {
	a, _ := NewAlignerAt(2, 0)
	emitted := -1
	emit := func(c Cut) error {
		// Contents must be verified before Recycle: afterwards the storage
		// belongs to the free list.
		if c.States[0][0] != int64(c.Index) || c.States[1][0] != int64(2*c.Index) {
			t.Fatalf("cut %d contents wrong: %v", c.Index, c.States)
		}
		emitted = c.Index
		a.Recycle(c)
		return nil
	}
	for k := 0; k < 50; k++ {
		must(t, a.Push(sim.Sample{Traj: 0, Index: k, Time: float64(k), State: []int64{int64(k), 10}}, emit))
		must(t, a.Push(sim.Sample{Traj: 1, Index: k, Time: float64(k), State: []int64{int64(2 * k), 20}}, emit))
		if emitted != k {
			t.Fatalf("cut %d not emitted (last emitted %d)", k, emitted)
		}
	}
	// Foreign cuts (hand-made, or from another geometry) are ignored.
	a.Recycle(Cut{Index: 0, States: [][]int64{{1}, {2}}})
	a.Recycle(Cut{})
}

// TestAlignerSteadyStateAllocationFree pins the recycling contract: with
// cuts recycled as they are consumed, pushing allocates nothing once the
// ring and free list have warmed up.
func TestAlignerSteadyStateAllocationFree(t *testing.T) {
	a, _ := NewAlignerAt(4, 0)
	emit := func(c Cut) error { a.Recycle(c); return nil }
	state := []int64{1, 2, 3}
	idx := 0
	push := func() {
		for traj := 0; traj < 4; traj++ {
			if err := a.Push(sim.Sample{Traj: traj, Index: idx, Time: float64(idx), State: state}, emit); err != nil {
				t.Fatal(err)
			}
		}
		idx++
	}
	push() // warm up: ring slots, first cut store, free list
	if avg := testing.AllocsPerRun(200, push); avg != 0 {
		t.Fatalf("steady-state Push allocates %.2f objects per cut, want 0", avg)
	}
}

// TestSliderRetireCallback: cuts must be retired exactly once each, only
// after the last window containing them was emitted.
func TestSliderRetireCallback(t *testing.T) {
	s, err := NewSliderAt(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	retired := map[int]int{}
	var emitted []int
	maxEmittedStart := -1
	s.SetRetire(func(c Cut) {
		retired[c.Index]++
		// A cut may only retire after some window containing it was
		// emitted: windows are 3 cuts wide, so the newest emitted window
		// must reach at least cut c.Index.
		if maxEmittedStart+2 < c.Index {
			t.Fatalf("cut %d retired but newest emitted window covers only up to %d", c.Index, maxEmittedStart+2)
		}
	})
	emit := func(w Window) error {
		emitted = append(emitted, w.Start)
		if w.Start > maxEmittedStart {
			maxEmittedStart = w.Start
		}
		return nil
	}
	for k := 0; k < 10; k++ {
		if err := s.Push(Cut{Index: k, Time: float64(k)}, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(emit); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if retired[k] != 1 {
			t.Fatalf("cut %d retired %d times, want exactly 1", k, retired[k])
		}
	}
	if len(emitted) == 0 {
		t.Fatal("no windows emitted")
	}
}
