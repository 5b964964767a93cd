package semantics

import (
	"sync"
	"testing"

	"thematicep/internal/corpus"
	"thematicep/internal/index"
)

// evalSpace builds the full evaluation space once for all tests in this
// package; tests must not mutate it except through exported methods.
var (
	evalOnce  sync.Once
	evalSpace *Space
	evalIndex *index.Index
)

func space(t testing.TB) *Space {
	t.Helper()
	evalOnce.Do(func() {
		evalIndex = index.Build(corpus.GenerateDefault())
		evalSpace = NewSpace(evalIndex)
	})
	return evalSpace
}

func TestThemeKey(t *testing.T) {
	tests := []struct {
		name string
		give []string
		want string
	}{
		{name: "empty", give: nil, want: ""},
		{name: "one", give: []string{"Energy Policy"}, want: "energy policy"},
		{name: "sorted", give: []string{"b", "a"}, want: "a|b"},
		{name: "dedup", give: []string{"a", "A", "a"}, want: "a"},
		{name: "blank dropped", give: []string{"", "x"}, want: "x"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ThemeKey(tt.give); got != tt.want {
				t.Errorf("ThemeKey(%v) = %q, want %q", tt.give, got, tt.want)
			}
		})
	}
}

func TestTermVectorMultiWord(t *testing.T) {
	s := space(t)
	v := s.TermVector("energy consumption")
	if v.IsZero() {
		t.Fatal("vector of in-vocabulary term is zero")
	}
	// The multi-word vector includes the dims of both token vectors.
	if v.NNZ() < s.Index().DocFreq("consumption") {
		t.Errorf("multi-word vector smaller than one token's postings")
	}
	if !s.TermVector("qqqunknownqqq").IsZero() {
		t.Error("vector of off-vocabulary term is non-zero")
	}
}

func TestSynonymsMoreRelatedThanUnrelated(t *testing.T) {
	s := space(t)
	tests := []struct {
		a, syn, unrelated string
	}{
		{a: "energy consumption", syn: "electricity usage", unrelated: "rainfall"},
		{a: "parking", syn: "garage spot", unrelated: "ozone"},
		{a: "laptop", syn: "computer", unrelated: "tram"},
		{a: "ireland", syn: "eire", unrelated: "kettle"},
	}
	for _, tt := range tests {
		rs := s.NonThematicRelatedness(tt.a, tt.syn)
		ru := s.NonThematicRelatedness(tt.a, tt.unrelated)
		if rs <= ru {
			t.Errorf("relatedness(%q,%q)=%v <= relatedness(%q,%q)=%v",
				tt.a, tt.syn, rs, tt.a, tt.unrelated, ru)
		}
	}
}

func TestRelatednessRange(t *testing.T) {
	s := space(t)
	pairs := [][2]string{
		{"energy consumption", "energy usage"},
		{"parking", "parking"},
		{"temperature", "social class"},
		{"qqqnope", "parking"},
	}
	for _, p := range pairs {
		r := s.NonThematicRelatedness(p[0], p[1])
		if r < 0 || r > 1 {
			t.Errorf("relatedness(%q,%q) = %v out of [0,1]", p[0], p[1], r)
		}
	}
}

func TestIdenticalTermMaxRelatedness(t *testing.T) {
	s := space(t)
	if r := s.NonThematicRelatedness("parking", "parking"); r != 1 {
		t.Errorf("relatedness(parking, parking) = %v, want 1 (distance 0)", r)
	}
}

func TestRelatednessSymmetric(t *testing.T) {
	s := space(t)
	theme := []string{"energy policy", "electrical energy"}
	a := s.Relatedness("laptop", theme, "computer", theme)
	b := s.Relatedness("computer", theme, "laptop", theme)
	if a != b {
		t.Errorf("asymmetric: %v vs %v", a, b)
	}
}

func TestUnknownTermsZeroRelatedness(t *testing.T) {
	s := space(t)
	if r := s.NonThematicRelatedness("qqqnopea", "qqqnopeb"); r != 0 {
		t.Errorf("relatedness of two unknown terms = %v, want 0", r)
	}
}

func TestThemeBasisExcludesMixedDocs(t *testing.T) {
	s := space(t)
	c := corpus.GenerateDefault()
	basis := s.ThemeBasis([]string{"energy policy", "power generation"})
	if len(basis) == 0 {
		t.Fatal("empty basis for energy theme")
	}
	for _, d := range basis {
		if c.Docs[d].Kind == corpus.KindMixed {
			t.Fatalf("basis includes mixed doc %q", c.Docs[d].Title)
		}
	}
	// The basis must be a strict subspace.
	if len(basis) >= s.Index().NumDocs() {
		t.Error("basis is not a strict subspace")
	}
}

func TestThemeBasisEmptyTheme(t *testing.T) {
	s := space(t)
	if b := s.ThemeBasis(nil); b != nil {
		t.Errorf("basis of empty theme = %v, want nil (full space)", b)
	}
	if b := s.ThemeBasis([]string{"qqqunseen"}); len(b) != 0 {
		t.Errorf("basis of off-vocabulary theme has %d docs", len(b))
	}
}

func TestProjectShrinksVectors(t *testing.T) {
	s := space(t)
	full := s.TermVector("energy consumption")
	proj := s.Project("energy consumption", []string{"energy policy"})
	if proj.IsZero() {
		t.Fatal("projection of energy consumption onto energy theme is zero")
	}
	if proj.NNZ() >= full.NNZ() {
		t.Errorf("projection (%d dims) not smaller than full (%d dims)", proj.NNZ(), full.NNZ())
	}
	// Projection dims must be inside the basis.
	basis := s.ThemeBasis([]string{"energy policy"})
	inBasis := make(map[int32]bool, len(basis))
	for _, d := range basis {
		inBasis[d] = true
	}
	for _, d := range proj.Dims() {
		if !inBasis[d] {
			t.Fatalf("projection has dim %d outside the basis", d)
		}
	}
}

func TestProjectEmptyThemeIsFullVector(t *testing.T) {
	s := space(t)
	full := s.TermVector("parking")
	proj := s.Project("parking", nil)
	if full.NNZ() != proj.NNZ() {
		t.Error("projection with empty theme differs from full vector")
	}
}

func TestProjectCompletelyFilteredTerm(t *testing.T) {
	s := space(t)
	// "rainfall" (environment) projected onto a pure social theme: the term
	// hardly occurs there; projection is zero or near-empty.
	proj := s.Project("rainfall", []string{"social welfare"})
	full := s.TermVector("rainfall")
	if proj.NNZ() >= full.NNZ() {
		t.Errorf("cross-domain projection did not shrink: %d vs %d", proj.NNZ(), full.NNZ())
	}
}

// The paper's disambiguation effect: "coach" means bus under a transport
// theme and tutor under an education theme. The thematic measure must
// prefer the in-theme sense; the non-thematic measure mixes senses.
func TestThematicDisambiguation(t *testing.T) {
	s := space(t)
	transport := []string{"land transport", "road traffic", "public transport"}
	education := []string{"information technology", "teaching", "documentation"}

	busTransport := s.Relatedness("bus", transport, "coach", transport)
	tutorTransport := s.Relatedness("tutor", transport, "coach", transport)
	if busTransport <= tutorTransport {
		t.Errorf("under transport theme: rel(bus,coach)=%v <= rel(tutor,coach)=%v",
			busTransport, tutorTransport)
	}

	tutorEducation := s.Relatedness("tutor", education, "coach", education)
	busEducation := s.Relatedness("bus", education, "coach", education)
	if tutorEducation <= busEducation {
		t.Errorf("under education theme: rel(tutor,coach)=%v <= rel(bus,coach)=%v",
			tutorEducation, busEducation)
	}
}

func TestIDFRecomputeAblation(t *testing.T) {
	ix := evalIndexFor(t)
	withRecompute := NewSpace(ix)
	without := NewSpace(ix, WithIDFRecompute(false))
	theme := []string{"energy policy", "power generation"}
	a := withRecompute.Project("energy consumption", theme)
	b := without.Project("energy consumption", theme)
	if a.IsZero() || b.IsZero() {
		t.Fatal("projection unexpectedly zero")
	}
	// Same support (both filtered by the same basis), different weights.
	if a.NNZ() == b.NNZ() {
		same := true
		a.Range(func(id int32, w float64) {
			if b.Weight(id) != w {
				same = false
			}
		})
		if same {
			t.Error("idf recomputation had no effect on weights")
		}
	}
}

func evalIndexFor(t testing.TB) *index.Index {
	t.Helper()
	space(t) // ensures evalIndex is built
	return evalIndex
}

func TestCosineDistanceOption(t *testing.T) {
	s := NewSpace(evalIndexFor(t), WithDistance(Cosine))
	r := s.NonThematicRelatedness("energy consumption", "electricity usage")
	u := s.NonThematicRelatedness("energy consumption", "rainfall")
	if r <= u {
		t.Errorf("cosine: rel(syn)=%v <= rel(unrelated)=%v", r, u)
	}
	if r < 0 || r > 1 {
		t.Errorf("cosine relatedness %v out of range", r)
	}
}

func TestCachingOffStillCorrect(t *testing.T) {
	cached := space(t)
	uncached := NewSpace(evalIndexFor(t), WithCaching(false))
	theme := []string{"energy policy"}
	a := cached.Relatedness("laptop", theme, "computer", theme)
	b := uncached.Relatedness("laptop", theme, "computer", theme)
	if a != b {
		t.Errorf("caching changed the result: %v vs %v", a, b)
	}
	_, scores := uncached.CacheStats()
	if scores != 0 {
		t.Error("uncached space filled the score cache")
	}
}

func TestPrecomputeScoresFillsCache(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	s.PrecomputeScores([]string{"laptop", "parking"}, []string{"computer", "garage spot"})
	_, scores := s.CacheStats()
	if scores != 4 {
		t.Errorf("score cache has %d entries, want 4", scores)
	}
	s.ResetCaches()
	if units, scores := s.CacheStats(); units+scores != 0 {
		t.Error("ResetCaches left entries behind")
	}
}

func TestConcurrentRelatedness(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	theme := []string{"energy policy", "land transport"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Relatedness("laptop", theme, "computer", theme)
				s.Relatedness("parking", theme, "garage spot", nil)
			}
		}()
	}
	wg.Wait()
}
