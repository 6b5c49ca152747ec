package window

import "cwcflow/internal/sim"

// Stream fuses the Aligner and the Slider into a single push-based stage:
// raw samples in, sliding windows out, with no channels in between. Each
// core.Analysis — every core.Run, RunGPU and serve job — owns one, fed by
// the batches of the simulation stage.
//
// Because the whole path is synchronous — a window is fully consumed by
// the time emit returns — the Stream closes the recycling loop: cuts that
// slide out of the window buffer return their storage to the aligner's
// free list, so a steady-state Stream aligns and windows without
// allocating. Consumers must therefore not retain a Window or its cut
// States after emit returns (core.Analysis copies each window with a
// CopyBuffer before it hands it to a stat engine).
//
// The zero value is not usable; construct with NewStream.
type Stream struct {
	aligner *Aligner
	slider  *Slider
}

// NewStream returns a stream for an ensemble of nTraj trajectories,
// emitting windows of size cuts every step cuts.
func NewStream(nTraj, size, step int) (*Stream, error) {
	return NewStreamAt(nTraj, size, step, 0)
}

// NewStreamAt returns a stream resuming at cut index startCut (a window
// boundary, i.e. a multiple of step): the aligner assembles cuts from
// startCut and the slider numbers windows from startCut/step onward. A
// recovered job uses it to continue a crashed run's window sequence —
// producing, cut for cut and window for window, exactly what the original
// stream would have produced from that point — after re-feeding samples
// from startCut on (the durable store's resume filter guarantees that no
// earlier sample reaches the stream).
func NewStreamAt(nTraj, size, step, startCut int) (*Stream, error) {
	a, err := NewAlignerAt(nTraj, startCut)
	if err != nil {
		return nil, err
	}
	s, err := NewSliderAt(size, step, startCut)
	if err != nil {
		return nil, err
	}
	s.SetRetire(a.Recycle)
	return &Stream{aligner: a, slider: s}, nil
}

// Push adds one sample, invoking emit for every window the sample
// completes (one sample can release several cuts, and therefore several
// windows, when it fills the oldest alignment gap).
func (st *Stream) Push(s sim.Sample, emit func(Window) error) error {
	return st.aligner.Push(s, func(c Cut) error {
		return st.slider.Push(c, emit)
	})
}

// Cuts returns the number of complete cuts released so far.
func (st *Stream) Cuts() int { return st.aligner.EmittedCuts() }

// Close verifies the sample stream was complete and flushes the trailing
// partial window, if any. Call it after the last sample was pushed.
func (st *Stream) Close(emit func(Window) error) error {
	if err := st.aligner.Close(); err != nil {
		return err
	}
	return st.slider.Flush(emit)
}

// WindowCount returns the number of windows a Slider of the given size and
// step emits (including the trailing Flush) for a stream of cuts complete
// cuts. It lets progress reporting state "window w of W" without running
// the stream.
func WindowCount(cuts, size, step int) int {
	if cuts <= 0 || size < 1 || step < 1 || step > size {
		return 0
	}
	full := 0
	if cuts >= size {
		full = (cuts-size)/step + 1
	}
	// After full windows the slider still buffers cuts - full*step cuts;
	// Flush emits them only if some cut was never part of a window (see
	// Slider.Flush).
	buffered := cuts - full*step
	if buffered > 0 && (full == 0 || buffered > size-step) {
		return full + 1
	}
	return full
}
