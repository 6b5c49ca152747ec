package gillespie

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Engine snapshots: both SSA engines can export their complete dynamic
// state as an opaque byte string and later restore it, continuing the
// trajectory bit-identically — the primitive the durable job store's
// trajectory checkpoints are built on. Everything derivable from the
// immutable System (propensities, the compiled program, dependency
// graphs) is recomputed on restore rather than stored; only the
// irreducible dynamic state travels: species counts, the simulation
// clock, the step counter, the 16-byte RNG state and — for the
// next-reaction method — the tentative firing times with their queue
// order, which embed past RNG draws and cannot be recomputed.
//
// A snapshot is tied to the System it was taken from: Restore validates
// the engine kind and the state-vector width, but it cannot detect a
// *different* network of the same size — restoring across models is a
// caller error with undefined (though memory-safe) results.

// Snapshot format version and engine tags.
const (
	snapVersion    = 1
	snapKindDirect = 1
	snapKindNRM    = 2
)

// snapWriter accumulates the little-endian snapshot encoding.
type snapWriter struct{ buf []byte }

func (w *snapWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}
func (w *snapWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *snapWriter) i64s(v []int64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.u64(uint64(x))
	}
}
func (w *snapWriter) f64s(v []float64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}
func (w *snapWriter) ints(v []int) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.u64(uint64(x))
	}
}

// snapReader decodes the snapshot encoding, failing on truncation.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("gillespie: truncated snapshot")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return v
}
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// sliceLen validates a decoded length against the expected value.
func (r *snapReader) sliceLen(what string, want int) int {
	n := int(r.u64())
	if r.err == nil && n != want {
		r.err = fmt.Errorf("gillespie: snapshot %s has %d entries, want %d", what, n, want)
	}
	return n
}

// header emits the common prefix: version, engine kind, RNG state.
func (w *snapWriter) header(kind byte, rng *RNG) {
	w.buf = append(w.buf, snapVersion, kind)
	st, _ := rng.MarshalBinary()
	w.buf = append(w.buf, st...)
}

// header consumes and validates the common prefix, restoring rng.
func (r *snapReader) header(kind byte, rng *RNG) {
	if r.err != nil {
		return
	}
	if len(r.buf) < 2+rngStateSize {
		r.err = fmt.Errorf("gillespie: truncated snapshot header")
		return
	}
	if r.buf[0] != snapVersion {
		r.err = fmt.Errorf("gillespie: snapshot version %d, want %d", r.buf[0], snapVersion)
		return
	}
	if r.buf[1] != kind {
		r.err = fmt.Errorf("gillespie: snapshot is for engine kind %d, want %d", r.buf[1], kind)
		return
	}
	r.err = rng.UnmarshalBinary(r.buf[2 : 2+rngStateSize])
	r.buf = r.buf[2+rngStateSize:]
}

// Snapshot exports the engine's complete dynamic state. With the default
// per-step exact resummation (WithResumInterval(1), the default), a
// restored engine continues the trajectory bit-identically; with a
// relaxed interval the restored propensity total is exactly resummed at
// the restore point, which can differ from the drifted running total by
// a few ULPs.
func (d *Direct) Snapshot() ([]byte, error) {
	var w snapWriter
	w.header(snapKindDirect, &d.rng)
	w.f64(d.now)
	w.u64(d.steps)
	w.i64s(d.state)
	return w.buf, nil
}

// Restore replaces the engine's dynamic state with a Snapshot taken from
// an engine over the same System. Propensities are recomputed from the
// restored species counts and the total exactly resummed.
func (d *Direct) Restore(data []byte) error {
	r := snapReader{buf: data}
	var rng RNG
	r.header(snapKindDirect, &rng)
	now := r.f64()
	steps := r.u64()
	r.sliceLen("state", len(d.state))
	if r.err != nil {
		return r.err
	}
	state := make([]int64, len(d.state))
	for i := range state {
		state[i] = int64(r.u64())
	}
	if r.err != nil {
		return r.err
	}
	d.rng = rng
	d.now = now
	d.steps = steps
	copy(d.state, state)
	for j := range d.props {
		p := d.prog.eval(j, d.state)
		if p < 0 {
			return fmt.Errorf("gillespie: restored state gives reaction %q negative propensity %g", d.sys.Reactions[j].Name, p)
		}
		d.props[j] = p
	}
	d.resum()
	return nil
}

// Snapshot exports the engine's complete dynamic state, including the
// tentative firing times and their queue order (which embed past RNG
// draws). A restored engine continues the trajectory bit-identically.
func (nr *NextReaction) Snapshot() ([]byte, error) {
	var w snapWriter
	w.header(snapKindNRM, &nr.rng)
	w.f64(nr.now)
	w.u64(nr.steps)
	w.i64s(nr.state)
	w.f64s(nr.times)
	w.ints(nr.heap)
	return w.buf, nil
}

// Restore replaces the engine's dynamic state with a Snapshot taken from
// an engine over the same System. Propensities are recomputed from the
// restored species counts; heap positions are rebuilt from the restored
// queue order.
func (nr *NextReaction) Restore(data []byte) error {
	r := snapReader{buf: data}
	var rng RNG
	r.header(snapKindNRM, &rng)
	now := r.f64()
	steps := r.u64()
	r.sliceLen("state", len(nr.state))
	state := make([]int64, len(nr.state))
	for i := range state {
		state[i] = int64(r.u64())
	}
	nR := len(nr.times)
	r.sliceLen("times", nR)
	times := make([]float64, nR)
	for i := range times {
		times[i] = r.f64()
	}
	r.sliceLen("heap", nR)
	heap := make([]int, nR)
	seen := make([]bool, nR)
	for i := range heap {
		j := int(r.u64())
		if r.err == nil && (j < 0 || j >= nR || seen[j]) {
			r.err = fmt.Errorf("gillespie: snapshot heap is not a permutation")
		}
		if r.err == nil {
			seen[j] = true
		}
		heap[i] = j
	}
	if r.err != nil {
		return r.err
	}
	nr.rng = rng
	nr.now = now
	nr.steps = steps
	copy(nr.state, state)
	copy(nr.times, times)
	copy(nr.heap, heap)
	for i, j := range nr.heap {
		nr.pos[j] = i
	}
	for j := range nr.props {
		p := nr.prog.eval(j, nr.state)
		if p < 0 {
			return fmt.Errorf("gillespie: restored state gives reaction %q negative propensity %g", nr.sys.Reactions[j].Name, p)
		}
		nr.props[j] = p
	}
	return nil
}
