// Package gillespie implements the Gillespie stochastic simulation
// algorithm (SSA) for flat reaction networks over dense state vectors.
//
// This is the plain-Gillespie baseline of the paper (what tools like
// StochKit implement): the CWC engine in the cwc package generalises it to
// nested-compartment terms, at the cost of tree matching at every step.
// Both engines expose the same stepping contract so the simulation layer
// (package sim) can drive either.
//
// Two exact SSA variants are provided: the direct method (dependency-driven
// partial propensity updates over a compiled reaction program) and the
// Gibson–Bruck next-reaction method (dependency graph + indexed priority
// queue), which is asymptotically faster for large, loosely coupled
// networks.
//
// Both engines share a compiled form of the network (see program): the
// mass-action reactions built by MassAction are flattened into packed
// stoichiometry arrays evaluated by one loop over flat data — no closure
// call, no per-reaction pointer chasing — while Custom reactions keep
// their closures as the fallback path.
package gillespie

import (
	"errors"
	"fmt"
	"sync"
)

// Change is one stoichiometric effect of a reaction: species index and
// count delta.
type Change struct {
	Species int
	Delta   int64
}

// massAction carries the packed kinetics of an elementary reaction so the
// compiled program can evaluate its propensity without going through the
// closure. reqs is the reactant stoichiometry in ascending species order —
// the same order the closure multiplies in, so both paths produce
// bit-identical floats.
type massAction struct {
	k    float64
	reqs []Change
}

// Reaction is one channel of the network: a propensity function over the
// state vector plus the state changes applied when it fires.
type Reaction struct {
	Name    string
	Changes []Change
	// Rate returns the reaction propensity for the given state. It must be
	// non-negative and must depend only on state.
	Rate func(state []int64) float64
	// Reads lists the species indices the Rate function reads. It drives
	// the dependency graphs of both engines (which propensities to refresh
	// after a firing); the mass-action constructor fills it automatically,
	// and a reaction with a nil Reads set is conservatively assumed to
	// depend on every species.
	Reads []int

	// ma, when non-nil, marks the reaction as elementary mass-action and
	// lets compile emit it into the packed kernel instead of keeping the
	// closure on the hot path.
	ma *massAction
}

// System is a complete reaction network.
//
// A System is compiled (flattened into the packed program both engines
// execute) at most once, lazily, when the first engine is constructed from
// it; it must not be modified afterwards. Sharing one System across many
// engines — the per-trajectory factories do — shares the compilation.
type System struct {
	Name      string
	Species   []string
	Reactions []Reaction
	Init      []int64

	compileOnce sync.Once
	prog        *program
	compileErr  error
}

// compiled returns the system's compiled program, compiling on first use.
func (s *System) compiled() (*program, error) {
	s.compileOnce.Do(func() {
		s.prog, s.compileErr = compile(s)
	})
	return s.prog, s.compileErr
}

// Validate checks structural consistency.
func (s *System) Validate() error {
	if len(s.Species) == 0 {
		return errors.New("gillespie: system has no species")
	}
	if len(s.Init) != len(s.Species) {
		return fmt.Errorf("gillespie: init vector has %d entries for %d species", len(s.Init), len(s.Species))
	}
	for _, x := range s.Init {
		if x < 0 {
			return errors.New("gillespie: negative initial count")
		}
	}
	if len(s.Reactions) == 0 {
		return errors.New("gillespie: system has no reactions")
	}
	for i, r := range s.Reactions {
		if r.Rate == nil && r.ma == nil {
			return fmt.Errorf("gillespie: reaction %d (%s) has nil rate", i, r.Name)
		}
		for _, c := range r.Changes {
			if c.Species < 0 || c.Species >= len(s.Species) {
				return fmt.Errorf("gillespie: reaction %d (%s) touches unknown species %d", i, r.Name, c.Species)
			}
		}
	}
	return nil
}

// SpeciesIndex returns the index of the named species, or -1.
func (s *System) SpeciesIndex(name string) int {
	for i, n := range s.Species {
		if n == name {
			return i
		}
	}
	return -1
}

// MassAction builds a mass-action reaction with rate constant k:
// propensity = k * prod_i C(x_i, r_i) over the reactant stoichiometry.
// reactants and products map species index → stoichiometric coefficient.
func MassAction(name string, k float64, reactants, products map[int]int64) Reaction {
	reqs := make([]Change, 0, len(reactants))
	for sp, n := range reactants {
		reqs = append(reqs, Change{Species: sp, Delta: n})
	}
	// Deterministic order for reproducibility of float products.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j-1].Species > reqs[j].Species; j-- {
			reqs[j-1], reqs[j] = reqs[j], reqs[j-1]
		}
	}
	var changes []Change
	var reads []int
	net := make(map[int]int64)
	for sp, n := range reactants {
		net[sp] -= n
	}
	for sp, n := range products {
		net[sp] += n
	}
	for sp := range net {
		reads = append(reads, sp)
	}
	for i := 1; i < len(reads); i++ {
		for j := i; j > 0 && reads[j-1] > reads[j]; j-- {
			reads[j-1], reads[j] = reads[j], reads[j-1]
		}
	}
	for _, sp := range reads {
		if net[sp] != 0 {
			changes = append(changes, Change{Species: sp, Delta: net[sp]})
		}
	}
	rateReads := make([]int, 0, len(reqs))
	for _, r := range reqs {
		rateReads = append(rateReads, r.Species)
	}
	ma := &massAction{k: k, reqs: reqs}
	return Reaction{
		Name:    name,
		Changes: changes,
		Reads:   rateReads,
		ma:      ma,
		Rate: func(state []int64) float64 {
			return ma.eval(state)
		},
	}
}

// eval is the closure-path evaluation of a mass-action propensity; the
// compiled kernel in program.eval performs the identical float operations
// in the identical order over the packed arrays.
func (m *massAction) eval(state []int64) float64 {
	p := m.k
	for _, r := range m.reqs {
		have := state[r.Species]
		if have < r.Delta {
			return 0
		}
		for j := int64(0); j < r.Delta; j++ {
			p *= float64(have-j) / float64(j+1)
		}
	}
	return p
}

// Custom builds a reaction with an arbitrary propensity function. reads
// must list every species index the rate depends on (for the engines'
// dependency graphs); nil means "depends on everything".
func Custom(name string, changes []Change, reads []int, rate func(state []int64) float64) Reaction {
	return Reaction{Name: name, Changes: changes, Reads: reads, Rate: rate}
}

// program is the compiled form of a System shared by both engines: the
// mass-action reactions flattened into packed stoichiometry arrays (one
// contiguous segment per reaction), the Custom closures kept as fallback,
// every reaction's state changes flattened likewise, and the static
// dependency graph (after reaction j fires, which propensities change).
type program struct {
	sys *System

	// Mass-action kernel: reaction j's reactants are
	// (reqSp[i], reqN[i]) for i in [reqOff[j], reqOff[j+1]).
	// A negative k marks a non-mass-action reaction (see custom).
	k      []float64
	reqOff []int32
	reqSp  []int32
	reqN   []int64

	// custom[j] is the closure fallback for non-mass-action reactions
	// (nil for compiled ones).
	custom []func(state []int64) float64

	// Flattened state changes: reaction j applies
	// state[chgSp[i]] += chgDelta[i] for i in [chgOff[j], chgOff[j+1]).
	chgOff   []int32
	chgSp    []int32
	chgDelta []int64

	// deps[j] lists the reactions whose propensity must be refreshed after
	// reaction j fires (always including j itself), in the deterministic
	// order both engines rely on.
	deps [][]int
}

// compile validates the system and flattens it into a program.
func compile(sys *System) (*program, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := len(sys.Reactions)
	p := &program{
		sys:    sys,
		k:      make([]float64, n),
		reqOff: make([]int32, n+1),
		custom: make([]func([]int64) float64, n),
		chgOff: make([]int32, n+1),
	}
	for j, r := range sys.Reactions {
		if r.ma != nil {
			p.k[j] = r.ma.k
			for _, rq := range r.ma.reqs {
				p.reqSp = append(p.reqSp, int32(rq.Species))
				p.reqN = append(p.reqN, rq.Delta)
			}
		} else {
			p.k[j] = -1
			p.custom[j] = r.Rate
		}
		p.reqOff[j+1] = int32(len(p.reqSp))
		for _, c := range r.Changes {
			p.chgSp = append(p.chgSp, int32(c.Species))
			p.chgDelta = append(p.chgDelta, c.Delta)
		}
		p.chgOff[j+1] = int32(len(p.chgSp))
	}
	deps, err := buildDeps(sys)
	if err != nil {
		return nil, err
	}
	p.deps = deps
	return p, nil
}

// buildDeps computes the reaction dependency graph: deps[j] is the set of
// reactions reading at least one species changed by reaction j, plus j
// itself, in the deterministic order (self first, then readers of each
// changed species in reaction order) that the next-reaction method's RNG
// stream depends on.
func buildDeps(sys *System) ([][]int, error) {
	// readers[s] = reactions whose propensity reads species s.
	readers := make([][]int, len(sys.Species))
	for j, r := range sys.Reactions {
		reads := r.Reads
		if reads == nil {
			for s := range sys.Species {
				readers[s] = append(readers[s], j)
			}
			continue
		}
		for _, s := range reads {
			if s < 0 || s >= len(sys.Species) {
				return nil, fmt.Errorf("gillespie: reaction %d (%s) reads unknown species %d", j, r.Name, s)
			}
			readers[s] = append(readers[s], j)
		}
	}
	deps := make([][]int, len(sys.Reactions))
	seen := make([]bool, len(sys.Reactions))
	for i, r := range sys.Reactions {
		seen[i] = true // always update the fired reaction
		d := []int{i}
		for _, c := range r.Changes {
			for _, j := range readers[c.Species] {
				if !seen[j] {
					seen[j] = true
					d = append(d, j)
				}
			}
		}
		for _, j := range d {
			seen[j] = false
		}
		deps[i] = d
	}
	return deps, nil
}

// eval computes reaction j's propensity: the packed mass-action kernel for
// compiled reactions, the closure for Custom ones. The kernel performs the
// same float operations in the same order as the MassAction closure, so
// trajectories are bit-identical either way.
func (p *program) eval(j int, state []int64) float64 {
	if f := p.custom[j]; f != nil {
		return f(state)
	}
	prop := p.k[j]
	for i := p.reqOff[j]; i < p.reqOff[j+1]; i++ {
		have := state[p.reqSp[i]]
		n := p.reqN[i]
		if have < n {
			return 0
		}
		for m := int64(0); m < n; m++ {
			prop *= float64(have-m) / float64(m+1)
		}
	}
	return prop
}

// apply fires reaction j's state changes, panicking if a species count is
// driven negative (a modelling error).
func (p *program) apply(j int, state []int64) {
	for i := p.chgOff[j]; i < p.chgOff[j+1]; i++ {
		sp := p.chgSp[i]
		state[sp] += p.chgDelta[i]
		if state[sp] < 0 {
			panic(fmt.Sprintf("gillespie: species %s driven negative by %q", p.sys.Species[sp], p.sys.Reactions[j].Name))
		}
	}
}

// Direct is the Gillespie direct method with dependency-driven propensity
// updates: propensities are computed once up front and, after each firing,
// only the reactions reading a changed species are re-evaluated (through
// the compiled program). The propensity total is re-summed exactly (in
// index order, matching the classic full-recompute float stream) every
// ResumInterval steps — every step by default, which keeps trajectories
// bit-identical to the textbook O(R)-per-step implementation while still
// skipping all the redundant rate evaluations.
//
// Everything a step writes — the struct itself (clock, step count, RNG
// state, running total) and the state and propensity arrays — owns whole
// cache lines (see lineSlice), so engines stepped on different cores never
// contend for a line however their allocations fell.
type Direct struct {
	sys   *System
	prog  *program
	state []int64
	now   float64
	rng   RNG
	props []float64
	total float64
	steps uint64

	resumEvery int
	sinceResum int

	_ [8]byte // to 128 bytes, two whole lines: see TestEnginesFillWholeCacheLines
}

// cacheLine is the unit of cache coherence two cores contend for.
const cacheLine = 64

// lineSlice returns a zeroed slice of n 8-byte elements whose capacity is
// rounded up to whole cache lines. A request of whole lines lands in a
// size class that is itself whole lines, so the backing array starts on a
// line boundary and shares no line with any other allocation: the
// per-trajectory arrays a step writes cannot false-share with a
// neighbouring trajectory's, which the feeder built a moment before.
func lineSlice[T int64 | float64 | int](n int) []T {
	const perLine = cacheLine / 8
	return make([]T, n, (n+perLine-1)/perLine*perLine)
}

// DirectOption configures NewDirect.
type DirectOption func(*Direct)

// WithResumInterval sets how often the propensity total is exactly
// re-summed from the per-reaction propensities. The default (1) re-sums
// every step: the running total is then always the exact index-order sum
// and trajectories are bit-identical to a full per-step recompute. Larger
// intervals keep a running total between re-summations — O(deps) instead
// of O(R) per step, worthwhile for very large networks — at the cost of
// float drift that may perturb firing times by a few ULPs between
// re-summations.
func WithResumInterval(n int) DirectOption {
	return func(d *Direct) {
		if n < 1 {
			n = 1
		}
		d.resumEvery = n
	}
}

// NewDirect returns a direct-method engine with a private copy of the
// initial state and a private RNG.
func NewDirect(sys *System, seed int64, opts ...DirectOption) (*Direct, error) {
	prog, err := sys.compiled()
	if err != nil {
		return nil, err
	}
	d := &Direct{
		sys:        sys,
		prog:       prog,
		state:      lineSlice[int64](len(sys.Init)),
		props:      lineSlice[float64](len(sys.Reactions)),
		resumEvery: 1,
	}
	copy(d.state, sys.Init)
	d.rng.seed(seed)
	for _, o := range opts {
		o(d)
	}
	for j := range sys.Reactions {
		p := prog.eval(j, d.state)
		if p < 0 {
			panic(fmt.Sprintf("gillespie: reaction %q negative propensity %g", sys.Reactions[j].Name, p))
		}
		d.props[j] = p
	}
	d.resum()
	return d, nil
}

// resum recomputes the propensity total exactly, summing in index order —
// the same order the classic per-step scan accumulated in.
func (d *Direct) resum() {
	total := 0.0
	for _, p := range d.props {
		total += p
	}
	d.total = total
	d.sinceResum = 0
}

// Time returns the current simulation time.
func (d *Direct) Time() float64 { return d.now }

// Steps returns the number of reactions fired.
func (d *Direct) Steps() uint64 { return d.steps }

// NumSpecies returns the dimension of the observable state.
func (d *Direct) NumSpecies() int { return len(d.sys.Species) }

// Observe copies the current state into out.
func (d *Direct) Observe(out []int64) { copy(out, d.state) }

// State returns the live state vector (do not mutate).
func (d *Direct) State() []int64 { return d.state }

// Step fires one reaction, returning false in a dead state.
func (d *Direct) Step() bool {
	if d.sinceResum >= d.resumEvery {
		d.resum()
	}
	total := d.total
	if total <= 0 {
		return false
	}
	prevNow := d.now
	d.now += d.rng.ExpFloat64() / total
	target := d.rng.Float64() * total

	idx := selectChannel(d.props, target)
	if idx < 0 {
		// Only reachable with a relaxed resummation interval, when the
		// drifted running total is positive but every propensity is
		// zero: the system is dead. Undo the bogus waiting time drawn
		// from the drifted total — death froze the clock at the last
		// real firing.
		d.now = prevNow
		d.resum()
		return false
	}

	d.prog.apply(idx, d.state)
	d.steps++

	// Dependency-driven partial update: only the reactions reading a
	// species changed by idx are re-evaluated.
	for _, j := range d.prog.deps[idx] {
		old := d.props[j]
		p := d.prog.eval(j, d.state)
		if p < 0 {
			panic(fmt.Sprintf("gillespie: reaction %q negative propensity %g", d.sys.Reactions[j].Name, p))
		}
		d.props[j] = p
		d.total += p - old
	}
	d.sinceResum++
	return true
}

// selectChannel picks the reaction whose cumulative-propensity interval
// contains target (the direct method's linear scan). When float rounding
// pushes target to (or past) the accumulated sum — possible because the
// RNG draw multiplies by a total summed separately — it falls back to the
// last channel with positive propensity, never a zero-propensity one.
// It returns -1 only when every propensity is zero.
func selectChannel(props []float64, target float64) int {
	acc := 0.0
	for i, p := range props {
		acc += p
		if target < acc {
			return i
		}
	}
	for i := len(props) - 1; i >= 0; i-- {
		if props[i] > 0 {
			return i
		}
	}
	return -1
}

// AdvanceTo steps until the simulation time reaches t or the system dies.
func (d *Direct) AdvanceTo(t float64) (fired uint64, live bool) {
	start := d.steps
	for d.now < t {
		if !d.Step() {
			return d.steps - start, false
		}
	}
	return d.steps - start, true
}
