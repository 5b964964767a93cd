package semantics

import (
	"math"
	"math/rand"
	"testing"

	"thematicep/internal/corpus"
	"thematicep/internal/index"
	"thematicep/internal/sparse"
	"thematicep/internal/text"
)

// kernelTerms and kernelThemes span the interesting measure regimes over
// the evaluation corpus: synonyms, unrelated terms, off-vocabulary terms
// (zero projections), multi-word terms, and full-space (nil) themes.
var kernelTerms = []string{
	"energy consumption", "electricity usage", "laptop", "computer",
	"rainfall", "parking", "tram", "qqqunknownqqq", "ozone",
}

var kernelThemes = [][]string{
	nil,
	{"energy"},
	{"transport"},
	{"energy", "weather"},
	{"environment", "transport", "energy"},
}

// oldRelatedness is the pre-kernel hot path preserved as a reference: raw
// projections, two Scale copies to L2-normalize, then the three-branch
// Euclidean merge (Eq. 5) and Eq. 6.
func oldRelatedness(s *Space, aTerm string, at *CompiledTheme, bTerm string, bt *CompiledTheme) float64 {
	a := s.ProjectCompiled(aTerm, at)
	b := s.ProjectCompiled(bTerm, bt)
	if a.IsZero() || b.IsZero() {
		return 0
	}
	a = sparse.Scale(a, 1/a.Norm())
	b = sparse.Scale(b, 1/b.Norm())
	return 1 / (sparse.Euclidean(a, b) + 1)
}

// TestRelatednessKernelIdentity pins the dot-identity kernel to the old
// Scale+Euclidean path over real corpus projections, across the term/theme
// grid. The two agree within 1e-7 absolute (the documented cancellation
// bound of Distance.ofDot); in practice corpus pairs agree to
// ~1e-12 because projections of distinct terms are far from parallel.
func TestRelatednessKernelIdentity(t *testing.T) {
	s := space(t)
	for _, at := range kernelThemes {
		for _, bt := range kernelThemes {
			ca, cb := s.Compile(at), s.Compile(bt)
			for _, a := range kernelTerms {
				for _, b := range kernelTerms {
					ka, kb := text.Canonical(a), text.Canonical(b)
					got := s.RelatednessCompiled(ka, ca, kb, cb)
					want := oldRelatedness(s, ka, ca, kb, cb)
					if math.Abs(got-want) > 1e-7 {
						t.Errorf("relatedness(%q@%v, %q@%v) = %v, old path %v (Δ=%g)",
							a, at, b, bt, got, want, got-want)
					}
				}
			}
		}
	}
}

// TestUnitProjectionCachingOffStillCorrect checks the uncached unit path.
func TestUnitProjectionCachingOffStillCorrect(t *testing.T) {
	cached := space(t)
	raw := NewSpace(evalIndex, WithCaching(false))
	theme := []string{"energy"}
	ct, rt := cached.Compile(theme), raw.Compile(theme)
	for _, term := range kernelTerms {
		k := text.Canonical(term)
		a := cached.RelatednessCompiled(k, ct, "laptop", nil)
		b := raw.RelatednessCompiled(k, rt, "laptop", nil)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("caching on/off disagree for %q: %v vs %v", term, a, b)
		}
	}
}

// TestResetCachesDropsUnitProjections verifies the per-theme unit caches
// are reset along with the space-wide ones: after a reset, a warm call
// recomputes the projection (observable via the projection counter).
func TestResetCachesDropsUnitProjections(t *testing.T) {
	s := NewSpace(evalIndex)
	ct := s.Compile([]string{"energy"})
	s.RelatednessCompiled("laptop", ct, "computer", nil)
	_, before := s.Computes()
	s.RelatednessCompiled("laptop", ct, "computer", nil) // warm: no recompute
	if _, after := s.Computes(); after != before {
		t.Fatalf("warm call recomputed projections (%d -> %d)", before, after)
	}
	s.ResetCaches()
	s.RelatednessCompiled("laptop", ct, "computer", nil)
	if _, after := s.Computes(); after == before {
		t.Error("ResetCaches left unit projections warm: no recompute observed")
	}
}

// TestResetCachesClearsEveryTheme checks that after ResetCaches no compiled
// theme holds a unit projection or a basis, whichever path filled them.
func TestResetCachesClearsEveryTheme(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	full, _ := s.ResolveUnit("parking", nil)
	for _, th := range [][]string{{"energy policy"}, {"land transport", "road traffic"}} {
		ct := s.Compile(th)
		s.ResolveUnit("parking", ct)
		s.RelatednessBound(&full, ct)
	}
	s.ResetCaches()
	for _, ct := range s.compiledThemes() {
		if n := ct.units.len(); n != 0 {
			t.Errorf("theme %q holds %d unit projections after ResetCaches", ct.Key, n)
		}
		if ct.basis.Load() != nil {
			t.Errorf("theme %q holds its basis after ResetCaches", ct.Key)
		}
	}
}

// TestRelatednessWarmZeroAlloc asserts the tentpole property: a warm
// Euclidean RelatednessCompiled call allocates nothing — no Scale copies,
// no composite cache keys.
func TestRelatednessWarmZeroAlloc(t *testing.T) {
	s := space(t)
	sub := s.Compile([]string{"energy", "weather"})
	evt := s.Compile([]string{"transport"})
	s.RelatednessCompiled("laptop", sub, "computer", evt) // warm the caches
	allocs := testing.AllocsPerRun(100, func() {
		s.RelatednessCompiled("laptop", sub, "computer", evt)
	})
	if allocs != 0 {
		t.Errorf("warm RelatednessCompiled: %v allocs/op, want 0", allocs)
	}
}

// TestCompileRawMemoBounded asserts the themesRaw fix: permuted and
// duplicated orderings of the same tag set intern to one CompiledTheme and
// cannot grow the raw memo beyond its cap.
func TestCompileRawMemoBounded(t *testing.T) {
	s := NewSpace(evalIndex)
	base := []string{"energy", "transport", "weather", "environment"}
	for i := 0; i < 4*themesRawCap; i++ {
		// A fresh duplication pattern per iteration: the bits of i pick a
		// distinct sequence of duplicate tags, so every raw joined key is
		// distinct while the canonical tag set never changes.
		tags := append([]string{}, base...)
		for b := 0; b < 12; b++ {
			if i>>b&1 == 1 {
				tags = append(tags, "energy")
			} else {
				tags = append(tags, "transport")
			}
		}
		if s.Compile(tags) == nil {
			t.Fatal("Compile returned nil for non-empty theme")
		}
	}
	s.themesMu.RLock()
	raw, keys := len(s.themesRaw), len(s.themesKey)
	s.themesMu.RUnlock()
	if raw > themesRawCap {
		t.Errorf("themesRaw grew to %d entries, cap is %d", raw, themesRawCap)
	}
	if keys != 1 {
		t.Errorf("themesKey has %d entries, want 1 (all inputs are the same tag set)", keys)
	}
	// All permutations must intern to the same compiled theme.
	a := s.Compile([]string{"weather", "energy", "transport", "environment"})
	b := s.Compile([]string{"environment", "weather", "transport", "energy"})
	if a != b {
		t.Error("permuted tag orders compiled to distinct themes")
	}
}

// checkRowKernels sweeps one subscription term across an event-term column
// through the row kernel and compares every cell, bit for bit, with the
// scalar RelatednessCompiled. dense is the kernel's scratch, shared across
// calls and never cleared by the test: the kernel must hand it back
// all-zero.
func checkRowKernels(t *testing.T, s *Space, sub string, st *CompiledTheme, evs []string, et *CompiledTheme, dense []float64) {
	t.Helper()
	want := make([]float64, len(evs))
	for j, ev := range evs {
		want[j] = s.RelatednessCompiled(sub, st, ev, et)
	}

	row := make([]float64, len(evs))
	a, _ := s.ResolveUnit(sub, st)
	units := make([]sparse.Unit, len(evs))
	s.ResolveUnits(evs, et, units)
	ords := make([]uint32, len(evs))
	for j, ev := range evs {
		ords[j] = s.TermOrd(ev)
	}
	for j := range row {
		row[j] = math.NaN() // every cell must be written, zero rows included
	}
	s.RelatednessRowPreUnits(&a, s.TermOrd(sub), st, ords, units, et, dense, row)
	for j := range evs {
		if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
			t.Errorf("RelatednessRowPreUnits(%q@%v, %q@%v) = %v, scalar %v",
				sub, st.Ord(), evs[j], et.Ord(), row[j], want[j])
		}
	}
	for id, w := range dense {
		if w != 0 {
			t.Fatalf("scratch[%d] = %v after the row of %q", id, w, sub)
		}
	}
}

// TestRelatednessRowKernelsMatchScalar pins the row kernel to the scalar
// measure over the term/theme grid — which holds zero projections on either
// side (an off-vocabulary term, terms outside a theme's basis), the same
// term under the same theme (exactly 1), the same term under different
// themes (a real dot product), and nil themes — and over a four-document
// corpus built so that two distinct terms project to the same unit vector
// and their dot product reaches the clamp.
func TestRelatednessRowKernelsMatchScalar(t *testing.T) {
	s := space(t)
	evs := make([]string, len(kernelTerms))
	for j, term := range kernelTerms {
		evs[j] = text.Canonical(term)
	}
	dense := make([]float64, s.Index().NumDocs())
	for _, st := range kernelThemes {
		for _, et := range kernelThemes {
			for _, sub := range evs {
				checkRowKernels(t, s, sub, s.Compile(st), evs, s.Compile(et), dense)
			}
		}
	}
	energy := s.Compile([]string{"energy"})
	if got := s.RelatednessCompiled("laptop", energy, "laptop", energy); got != 1 {
		t.Errorf("same term, same theme = %v, want exactly 1", got)
	}
	if got := s.RelatednessCompiled("laptop", energy, "laptop", nil); got <= 0 || got >= 1 {
		t.Errorf("same term, different theme = %v, want a measured value in (0, 1)", got)
	}

	// alpha and beta occur in document 0 alone, so both normalize to the
	// unit vector {0: 1}: dot product exactly 1, distance clamped to 0.
	c := &corpus.Corpus{}
	for i, doc := range []string{"alpha beta", "gamma delta gamma", "gamma epsilon", "zeta"} {
		c.Docs = append(c.Docs, corpus.Document{ID: int32(i), Tokens: text.Tokenize(doc)})
	}
	tiny := NewSpace(index.Build(c))
	ua, _ := tiny.ResolveUnit("alpha", nil)
	ub, _ := tiny.ResolveUnit("beta", nil)
	if d := sparse.DotUnit(ua, ub); d < 1 {
		t.Fatalf("fixture: alpha·beta = %v, want a dot product at the clamp", d)
	}
	tinyTerms := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	dense = make([]float64, tiny.Index().NumDocs())
	for _, sub := range tinyTerms {
		checkRowKernels(t, tiny, sub, nil, tinyTerms, nil, dense)
	}
	if got := tiny.RelatednessCompiled("alpha", nil, "beta", nil); got != 1 {
		t.Errorf("clamped pair = %v, want exactly 1", got)
	}
}

// TestRelatednessRowKernelsMatchScalarConfigs repeats the grid sweep above
// under the other scoring configurations: cosine distance, where the row
// kernel maps its gathered dot products through the scalar measure's own
// definition, and an active score memo, which the row kernel does not
// consult and whose values it must reproduce bit for bit.
func TestRelatednessRowKernelsMatchScalarConfigs(t *testing.T) {
	ix := evalIndexFor(t)
	evs := make([]string, len(kernelTerms))
	for j, term := range kernelTerms {
		evs[j] = text.Canonical(term)
	}
	memo := NewSpace(ix)
	memo.PrecomputeScores(evs, evs)
	dense := make([]float64, ix.NumDocs())
	for _, s := range []*Space{NewSpace(ix, WithDistance(Cosine)), memo} {
		for _, st := range kernelThemes {
			for _, et := range kernelThemes {
				for _, sub := range evs {
					checkRowKernels(t, s, sub, s.Compile(st), evs, s.Compile(et), dense)
				}
			}
		}
	}
}

// TestSupportRule checks the rule the batch scorer rejects candidates on
// before it computes any similarity (see LiveColumns): on the resolved-unit
// Euclidean path, relatedness is nonzero exactly when both unit projections
// are nonzero. Canonical identity adds nothing here — the same term under
// the same theme has the same unit, so it scores 1 when that unit is
// nonzero and 0 when the term is filtered completely; the matcher scores
// identity 1 on its own, outside the space. The rule is limited to the
// Euclidean path because cosine is 0 for disjoint supports: the last part
// of the test finds nonzero projections whose cosine relatedness is 0.
func TestSupportRule(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(29))
	pool := append(conceptTerms(rng, 60), "qqqunknownqqq", "tram", "ozone")
	for j := range pool {
		pool[j] = text.Canonical(pool[j])
	}
	randTheme := func() *CompiledTheme { return s.Compile(sampleTheme(rng, rng.Intn(4))) }
	dense := make([]float64, s.Index().NumDocs())
	var positive, zero, identical int
	for trial := 0; trial < 200; trial++ {
		st, et := randTheme(), randTheme()
		if rng.Intn(3) == 0 {
			et = st
		}
		sub := pool[rng.Intn(len(pool))]
		evs := make([]string, 1+rng.Intn(12))
		for j := range evs {
			if evs[j] = pool[rng.Intn(len(pool))]; rng.Intn(4) == 0 {
				evs[j] = sub
			}
		}
		a, _ := s.ResolveUnit(sub, st)
		units := make([]sparse.Unit, len(evs))
		ords := make([]uint32, len(evs))
		s.ResolveUnits(evs, et, units)
		for j, ev := range evs {
			ords[j] = s.TermOrd(ev)
		}
		row := make([]float64, len(evs))
		s.RelatednessRowPreUnits(&a, s.TermOrd(sub), st, ords, units, et, dense, row)
		live := LiveColumns(units)
		for j, ev := range evs {
			want := !a.IsZero() && !units[j].IsZero()
			if got := s.RelatednessCompiled(sub, st, ev, et) > 0; got != want {
				t.Errorf("RelatednessCompiled(%q@%v, %q@%v) > 0 is %v, support rule says %v",
					sub, st.Ord(), ev, et.Ord(), got, want)
			}
			if got := row[j] != 0; got != want {
				t.Errorf("RelatednessRowPreUnits(%q@%v)[%d] (%q@%v) nonzero is %v, support rule says %v",
					sub, st.Ord(), j, ev, et.Ord(), got, want)
			}
			if got := live>>j&1 != 0; got != !units[j].IsZero() {
				t.Errorf("LiveColumns bit %d is %v for %q@%v", j, got, ev, et.Ord())
			}
			if want {
				positive++
			} else {
				zero++
			}
			if ev == sub {
				identical++
			}
		}
	}
	if positive == 0 || zero == 0 || identical == 0 {
		t.Fatalf("degenerate sample: %d positive, %d zero, %d identical cells", positive, zero, identical)
	}

	cos := NewSpace(s.Index(), WithDistance(Cosine))
	for trial := 0; ; trial++ {
		if trial == 2000 {
			t.Fatal("no nonzero pair with zero cosine relatedness found; the scope note is unchecked")
		}
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		at, bt := cos.Compile(sampleTheme(rng, 1)), cos.Compile(sampleTheme(rng, 1))
		if !cos.Filtered(a, at) && !cos.Filtered(b, bt) && cos.RelatednessCompiled(a, at, b, bt) == 0 {
			break
		}
	}
}

// TestRelatednessBound checks the theme-basis bound the batch scorer rejects
// candidates on before it fills any row: for random term pairs under random
// themes, in every scoring configuration, the relatedness of a non-identical
// pair is at most the bound of either side against the other side's theme,
// and the bound is below 1 often enough to matter.
func TestRelatednessBound(t *testing.T) {
	ix := evalIndexFor(t)
	rng := rand.New(rand.NewSource(31))
	pool := append(conceptTerms(rng, 60), "qqqunknownqqq", "tram", "ozone")
	for j := range pool {
		pool[j] = text.Canonical(pool[j])
	}
	for _, s := range []*Space{NewSpace(ix), NewSpace(ix, WithDistance(Cosine)),
		NewSpace(ix, WithIDFRecompute(false)), NewSpace(ix, WithCaching(false))} {
		var tight int
		for trial := 0; trial < 400; trial++ {
			st, et := s.Compile(sampleTheme(rng, rng.Intn(4))), s.Compile(sampleTheme(rng, rng.Intn(4)))
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if a == b {
				continue
			}
			ua, _ := s.ResolveUnit(a, st)
			ub, _ := s.ResolveUnit(b, et)
			got := s.RelatednessCompiled(a, st, b, et)
			for _, bound := range []float64{s.RelatednessBound(&ua, et), s.RelatednessBound(&ub, st)} {
				if got > bound {
					t.Fatalf("relatedness(%q@%v, %q@%v) = %v above its bound %v", a, st.Ord(), b, et.Ord(), got, bound)
				}
				if bound < 1 && got > 0 {
					tight++
				}
			}
		}
		if tight == 0 {
			t.Error("no bound below 1 on a related pair; the check is vacuous")
		}
	}
}
