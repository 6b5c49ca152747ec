package gillespie

import (
	"fmt"
	"math"
)

// NextReaction is the Gibson–Bruck next-reaction method: an exact SSA that
// keeps one tentative absolute firing time per reaction in an indexed
// priority queue and, after each firing, updates only the reactions whose
// propensities actually changed (via a static dependency graph). For
// networks with many loosely coupled channels it replaces the O(R) per-step
// scan of the direct method with O(deps · log R).
//
// Like Direct, it lays out everything a step writes — the struct and all
// five arrays — on cache lines of its own.
type NextReaction struct {
	sys   *System
	prog  *program
	state []int64
	now   float64
	rng   RNG
	steps uint64

	props []float64
	times []float64 // tentative absolute firing time per reaction

	heap []int // reaction indices ordered by times
	pos  []int // reaction -> heap position

	_ [24]byte // to 192 bytes, three whole lines: see TestEnginesFillWholeCacheLines
}

// NewNextReaction compiles the network (packed mass-action kernel +
// dependency graph) and initialises the queue. Every reaction should
// declare its Reads set (the mass-action constructors do); a reaction with
// a nil Reads set is conservatively assumed to depend on every species.
func NewNextReaction(sys *System, seed int64) (*NextReaction, error) {
	prog, err := sys.compiled()
	if err != nil {
		return nil, err
	}
	n := len(sys.Reactions)
	nr := &NextReaction{
		sys:   sys,
		prog:  prog,
		state: lineSlice[int64](len(sys.Init)),
		props: lineSlice[float64](n),
		times: lineSlice[float64](n),
		heap:  lineSlice[int](n),
		pos:   lineSlice[int](n),
	}
	copy(nr.state, sys.Init)
	nr.rng.seed(seed)

	for i := range sys.Reactions {
		nr.props[i] = prog.eval(i, nr.state)
		nr.times[i] = nr.drawTime(0, nr.props[i])
		nr.heap[i] = i
		nr.pos[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		nr.siftDown(i)
	}
	return nr, nil
}

func (nr *NextReaction) drawTime(now, prop float64) float64 {
	if prop <= 0 {
		return math.Inf(1)
	}
	return now + nr.rng.ExpFloat64()/prop
}

// Time returns the current simulation time.
func (nr *NextReaction) Time() float64 { return nr.now }

// Steps returns the number of reactions fired.
func (nr *NextReaction) Steps() uint64 { return nr.steps }

// NumSpecies returns the dimension of the observable state.
func (nr *NextReaction) NumSpecies() int { return len(nr.sys.Species) }

// Observe copies the current state into out.
func (nr *NextReaction) Observe(out []int64) { copy(out, nr.state) }

// State returns the live state vector (do not mutate).
func (nr *NextReaction) State() []int64 { return nr.state }

// Step fires the next reaction, returning false in a dead state.
func (nr *NextReaction) Step() bool {
	mu := nr.heap[0]
	tmu := nr.times[mu]
	if math.IsInf(tmu, 1) {
		return false
	}
	nr.now = tmu
	nr.prog.apply(mu, nr.state)
	nr.steps++

	for _, j := range nr.prog.deps[mu] {
		old := nr.props[j]
		p := nr.prog.eval(j, nr.state)
		if p < 0 {
			panic(fmt.Sprintf("gillespie: reaction %q negative propensity %g", nr.sys.Reactions[j].Name, p))
		}
		nr.props[j] = p
		switch {
		case j == mu:
			nr.times[j] = nr.drawTime(nr.now, p)
		case p <= 0:
			nr.times[j] = math.Inf(1)
		case old <= 0 || math.IsInf(nr.times[j], 1):
			// Reaction (re)activated: draw a fresh exponential.
			nr.times[j] = nr.drawTime(nr.now, p)
		default:
			// Gibson–Bruck time reuse: rescale the remaining wait.
			nr.times[j] = nr.now + (old/p)*(nr.times[j]-nr.now)
		}
		nr.fix(nr.pos[j])
	}
	return true
}

// AdvanceTo steps until the simulation time reaches t or the system dies.
func (nr *NextReaction) AdvanceTo(t float64) (fired uint64, live bool) {
	start := nr.steps
	for nr.now < t {
		if !nr.Step() {
			return nr.steps - start, false
		}
	}
	return nr.steps - start, true
}

// Indexed binary heap over times.

func (nr *NextReaction) less(i, j int) bool {
	return nr.times[nr.heap[i]] < nr.times[nr.heap[j]]
}

func (nr *NextReaction) swap(i, j int) {
	nr.heap[i], nr.heap[j] = nr.heap[j], nr.heap[i]
	nr.pos[nr.heap[i]] = i
	nr.pos[nr.heap[j]] = j
}

func (nr *NextReaction) fix(i int) {
	if !nr.siftUp(i) {
		nr.siftDown(i)
	}
}

func (nr *NextReaction) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !nr.less(i, parent) {
			break
		}
		nr.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (nr *NextReaction) siftDown(i int) {
	n := len(nr.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && nr.less(right, left) {
			smallest = right
		}
		if !nr.less(smallest, i) {
			return
		}
		nr.swap(i, smallest)
		i = smallest
	}
}
