package gillespie

import (
	"testing"
	"unsafe"
)

// Both engine structs are written on every step, so each is padded to
// whole cache lines: its allocation then lands in a size class of whole
// lines and starts on a line boundary, sharing no line with the engine
// built just before it. A new field must come out of the padding.
func TestEnginesFillWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit words")
	}
	for name, size := range map[string]uintptr{
		"Direct":       unsafe.Sizeof(Direct{}),
		"NextReaction": unsafe.Sizeof(NextReaction{}),
	} {
		if size%cacheLine != 0 {
			t.Errorf("%s is %d bytes, not a multiple of %d", name, size, cacheLine)
		}
	}
}
