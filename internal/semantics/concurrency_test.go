package semantics

import (
	"fmt"
	"sync"
	"testing"
)

// TestSpaceConcurrentSingleFlight hammers one Space from 8 goroutines over
// overlapping (term, theme) pairs and checks the two halves of the
// concurrency contract: every concurrent score equals the serial reference
// (stability), and every cached unit projection was computed exactly once
// (single-flight — Computes() equals the unit cache entry counts, thematic
// and full-space, even though 8 goroutines raced to fill the same keys).
// Run with -race.
func TestSpaceConcurrentSingleFlight(t *testing.T) {
	ix := evalIndexFor(t)
	terms := []string{
		"energy consumption", "electricity usage", "parking",
		"garage spot", "laptop", "computer", "rainfall", "tram",
	}
	themes := [][]string{
		{"energy consumption monitoring"},
		{"energy policy", "power generation"},
		{"land transport", "road traffic"},
	}

	// Serial reference from an independent space over the same index.
	ref := NewSpace(ix)
	refThemes := make([]*CompiledTheme, len(themes))
	for i, th := range themes {
		refThemes[i] = ref.Compile(th)
	}
	type quad struct{ ti, tj, a, b int }
	var quads []quad
	want := map[quad]float64{}
	wantFull := map[[2]int]float64{}
	for ti := range terms {
		for tj := range terms {
			wantFull[[2]int{ti, tj}] = ref.NonThematicRelatedness(terms[ti], terms[tj])
			for a := range themes {
				for b := range themes {
					q := quad{ti, tj, a, b}
					quads = append(quads, q)
					want[q] = ref.RelatednessCompiled(terms[ti], refThemes[a], terms[tj], refThemes[b])
				}
			}
		}
	}

	// Hammer a fresh space: all goroutines walk the same quads (offset so
	// they collide on cold keys), so every cache key is raced.
	s := NewSpace(ix)
	compiled := make([]*CompiledTheme, len(themes))
	for i, th := range themes {
		compiled[i] = s.Compile(th)
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range quads {
					q := quads[(k+g*7)%len(quads)]
					got := s.RelatednessCompiled(terms[q.ti], compiled[q.a], terms[q.tj], compiled[q.b])
					if got != want[q] {
						t.Errorf("goroutine %d: relatedness(%q,%d,%q,%d) = %v, want %v",
							g, terms[q.ti], q.a, terms[q.tj], q.b, got, want[q])
						return
					}
				}
				// The full space races through the measure too: its unit
				// cache is the only cached form of a term vector.
				for ti := range terms {
					tj := (ti + g) % len(terms)
					if got, want := s.NonThematicRelatedness(terms[ti], terms[tj]), wantFull[[2]int{ti, tj}]; got != want {
						t.Errorf("goroutine %d: non-thematic relatedness(%q,%q) = %v, want %v",
							g, terms[ti], terms[tj], got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Single-flight: each cached unit cost exactly one computation, and the
	// caches hold exactly the distinct keys the workload touched.
	tv := s.unitFull.len()
	pv := 0
	for _, ct := range compiled {
		pv += ct.units.len()
	}
	termComputes, projComputes := s.Computes()
	if termComputes != uint64(tv) {
		t.Errorf("term computes = %d, full-space unit entries = %d (single-flight violated)", termComputes, tv)
	}
	if projComputes != uint64(pv) {
		t.Errorf("projection computes = %d, per-theme unit entries = %d (single-flight violated)", projComputes, pv)
	}
	if tv != len(terms) {
		t.Errorf("full-space unit entries = %d, want %d", tv, len(terms))
	}
	if pv != len(terms)*len(themes) {
		t.Errorf("per-theme unit entries = %d, want %d", pv, len(terms)*len(themes))
	}
}

// TestSpaceConcurrentCompile races theme interning: the same raw tag lists
// compiled from many goroutines must converge to one CompiledTheme per
// distinct key.
func TestSpaceConcurrentCompile(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	const goroutines = 8
	themes := make([][]string, 16)
	for i := range themes {
		themes[i] = []string{fmt.Sprintf("theme %d", i%4), "shared tag"}
	}
	out := make([][]*CompiledTheme, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = make([]*CompiledTheme, len(themes))
			for i, th := range themes {
				out[g][i] = s.Compile(th)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range themes {
			if out[g][i] != out[0][i] {
				t.Fatalf("goroutine %d: theme %d interned to a different pointer", g, i)
			}
		}
	}
	for i := range themes {
		if i >= 4 && out[0][i] != out[0][i%4] {
			t.Fatalf("equal themes %d and %d not interned together", i, i%4)
		}
	}
}
