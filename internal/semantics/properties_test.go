package semantics

import (
	"math/rand"
	"testing"

	"thematicep/internal/vocab"
)

// conceptTerms samples concept terms from the evaluation vocabulary.
func conceptTerms(rng *rand.Rand, n int) []string {
	var pool []string
	for _, d := range vocab.Domains() {
		for _, c := range d.Concepts {
			pool = append(pool, c.Terms()...)
		}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// sampleTheme draws a random theme from the top-term pool.
func sampleTheme(rng *rand.Rand, size int) []string {
	var pool []string
	for _, d := range vocab.Domains() {
		pool = append(pool, d.TopTerms...)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if size > len(pool) {
		size = len(pool)
	}
	return pool[:size]
}

// Property: every projected vector's support is contained in the theme
// basis, for any term and any theme.
func TestProjectionSupportWithinBasis(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		theme := sampleTheme(rng, 1+rng.Intn(10))
		basis := s.ThemeBasis(theme)
		inBasis := make(map[int32]bool, len(basis))
		for _, d := range basis {
			inBasis[d] = true
		}
		for _, term := range conceptTerms(rng, 5) {
			proj := s.Project(term, theme)
			proj.Range(func(id int32, w float64) {
				if !inBasis[id] {
					t.Fatalf("term %q theme %v: projection dim %d outside basis", term, theme, id)
				}
				if w < 0 {
					t.Fatalf("term %q: negative weight %v", term, w)
				}
			})
		}
	}
}

// Property: the basis of a theme union is the union of the bases.
func TestThemeBasisUnion(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		a := sampleTheme(rng, 1+rng.Intn(4))
		b := sampleTheme(rng, 1+rng.Intn(4))
		union := append(append([]string(nil), a...), b...)

		got := s.ThemeBasis(union)
		want := make(map[int32]bool)
		for _, d := range s.ThemeBasis(a) {
			want[d] = true
		}
		for _, d := range s.ThemeBasis(b) {
			want[d] = true
		}
		if len(got) != len(want) {
			t.Fatalf("union basis size %d, want %d (themes %v | %v)", len(got), len(want), a, b)
		}
		for _, d := range got {
			if !want[d] {
				t.Fatalf("doc %d in union basis but not in either part", d)
			}
		}
	}
}

// Property: relatedness is always in [0,1] and symmetric under swapping
// (term, theme) pairs, for random vocabulary terms and themes.
func TestRelatednessBoundsAndSymmetry(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		terms := conceptTerms(rng, 2)
		ta := sampleTheme(rng, rng.Intn(6))
		tb := sampleTheme(rng, rng.Intn(6))
		r1 := s.Relatedness(terms[0], ta, terms[1], tb)
		r2 := s.Relatedness(terms[1], tb, terms[0], ta)
		if r1 < 0 || r1 > 1 {
			t.Fatalf("relatedness out of range: %v", r1)
		}
		if r1 != r2 {
			t.Fatalf("asymmetric: %v vs %v (terms %v themes %v/%v)", r1, r2, terms, ta, tb)
		}
	}
}

// Property: growing the theme never shrinks the basis.
func TestThemeBasisMonotone(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		small := sampleTheme(rng, 1+rng.Intn(5))
		extra := sampleTheme(rng, 1+rng.Intn(5))
		large := append(append([]string(nil), small...), extra...)
		if len(s.ThemeBasis(large)) < len(s.ThemeBasis(small)) {
			t.Fatalf("basis shrank when theme grew: %v -> %v", small, large)
		}
	}
}

func TestPrecomputeProjectionsFillsCache(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	themes := [][]string{
		{"energy policy", "power generation"},
		{"land transport"},
	}
	terms := []string{"energy consumption", "parking", "laptop"}
	s.PrecomputeProjections(terms, themes...)
	for _, theme := range themes {
		if ct := s.Compile(theme); ct.basis.Load() == nil {
			t.Errorf("theme %v: basis not built", theme)
		}
	}
	if units, _ := s.CacheStats(); units != len(terms)*len(themes) {
		t.Errorf("unit projections cached = %d, want %d", units, len(terms)*len(themes))
	}
}

// The disambiguation invariant across several homographs: projecting onto
// the home domain's theme must make the in-domain sense at least as related
// as the full space says, relative to the out-of-domain sense.
func TestHomographMargins(t *testing.T) {
	s := space(t)
	cases := []struct {
		homograph, inTerm, outTerm string
		theme                      []string
	}{
		{"coach", "bus", "tutor", []string{"land transport", "public transport"}},
		{"cell", "battery", "mobile phone", []string{"energy policy", "electrical energy"}},
		{"current", "electric current", "water flow", []string{"energy policy", "power generation"}},
	}
	for _, c := range cases {
		in := s.Relatedness(c.inTerm, c.theme, c.homograph, c.theme)
		out := s.Relatedness(c.outTerm, c.theme, c.homograph, c.theme)
		if in <= out {
			t.Errorf("theme %v: rel(%q,%q)=%.3f <= rel(%q,%q)=%.3f",
				c.theme, c.inTerm, c.homograph, in, c.outTerm, c.homograph, out)
		}
	}
}
