package core

import "testing"

func TestFactoryFor(t *testing.T) {
	for _, name := range []string{
		"neurospora", "neurospora-nrm", "neurospora-cwc",
		"lotka-volterra", "sir", "schlogl", "enzyme",
	} {
		f, err := FactoryFor(ModelRef{Name: name, Omega: 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := f(0, 1)
		if err != nil {
			t.Fatalf("%s: factory: %v", name, err)
		}
		if s.NumSpecies() < 1 {
			t.Fatalf("%s: no species", name)
		}
	}
	if _, err := FactoryFor(ModelRef{Name: "nope"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
