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
	s.RelatednessRowPreUnits(&a, s.TermOrd(sub), st, ords, units, et, dense, row, ^uint64(0))
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

	// A column mask fills the columns it selects, with the same bits, and
	// leaves every other cell as it was.
	if len(evs) > 64 {
		return // bits fold past 64 columns; only the all-ones mask is used there
	}
	for j := range row {
		row[j] = math.NaN()
	}
	const cols uint64 = 0xAAAAAAAAAAAAAAAA // odd columns
	s.RelatednessRowPreUnits(&a, s.TermOrd(sub), st, ords, units, et, dense, row, cols)
	for j := range evs {
		selected := cols>>j&1 != 0
		if selected && math.Float64bits(row[j]) != math.Float64bits(want[j]) || !selected && !math.IsNaN(row[j]) {
			t.Errorf("RelatednessRowPreUnits(%q@%v, %q@%v) under mask %x: cell %d is %v, scalar %v",
				sub, st.Ord(), evs[j], et.Ord(), uint64(cols), j, row[j], want[j])
		}
	}
	for id, w := range dense {
		if w != 0 {
			t.Fatalf("scratch[%d] = %v after the masked row of %q", id, w, sub)
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
		s.RelatednessRowPreUnits(&a, s.TermOrd(sub), st, ords, units, et, dense, row, ^uint64(0))
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

// TestCompileRawKeysDoNotAlias compiles a tag holding byte 0x01 before the
// two tags it glues: the raw memo's keys are length-prefixed, so the second
// list gets its own two-tag theme, not the first list's one-tag theme.
func TestCompileRawKeysDoNotAlias(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	glued := s.Compile([]string{"energy\x01transport"})
	split := s.Compile([]string{"energy", "transport"})
	if split.Key != "energy|transport" {
		t.Errorf(`Compile(["energy" "transport"]).Key = %q after compiling "energy\x01transport", want "energy|transport"`, split.Key)
	}
	if want := ThemeKey(glued.Tags); glued.Key != want || glued == split {
		t.Errorf("glued tag compiled to key %q (want %q), same theme as the split tags: %v", glued.Key, want, glued == split)
	}
}

// TestCompileWarmZeroAlloc asserts that a warm Compile and a warm
// CanonicalTerms allocate nothing: the raw memo key is built on the stack.
func TestCompileWarmZeroAlloc(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	theme := []string{"Energy Policy", "computer systems"}
	terms, ords := make([]string, 2), make([]uint32, 2)
	resolve := func() {
		s.Compile(theme)
		terms[0], terms[1] = "Increased Energy Usage", "laptop"
		s.CanonicalTerms(terms, ords)
	}
	resolve()
	if allocs := testing.AllocsPerRun(100, resolve); allocs != 0 {
		t.Errorf("warm Compile and CanonicalTerms: %v allocs/op, want 0", allocs)
	}
}

// FuzzCompileKey compiles fuzzed tag lists, control bytes included, in
// order against one space, then all of them again: every compiled theme's
// key is ThemeKey of its tags, and two lists share a compiled theme exactly
// when their keys are equal. data holds the lists: a count byte (1 + b%4
// tags), then per tag a length byte (b%8) and that many bytes, each kept
// when it is a control byte and otherwise mapped into a small alphabet, so
// that distinct lists often share a key.
func FuzzCompileKey(f *testing.F) {
	f.Add([]byte{0, 3, 'e', 1, 'n', 1, 2, 'e', 'n'})
	f.Add([]byte{1, 1, 'a', 1, 'b', 0, 3, 'a', 1, 'b'})
	f.Add([]byte{2, 2, 'a', '|', 2, 'b', 0, 3, 0, 2, 'A', 0, 1, 'a'})
	f.Add([]byte{3, 0, 1, ' ', 1, 0, 0, 5, 'a', 0x7f, 'b', 0x1f, 'a'})
	ix := evalIndexFor(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		const alphabet = "aAb |,"
		var lists [][]string
		for i := 0; i < len(data) && len(lists) < 16; {
			n := 1 + int(data[i])%4
			i++
			var tags []string
			for k := 0; k < n && i < len(data); k++ {
				l := int(data[i]) % 8
				i++
				tag := make([]byte, 0, l)
				for ; l > 0 && i < len(data); l-- {
					b := data[i]
					i++
					if b >= 0x20 && b != 0x7f {
						b = alphabet[int(b)%len(alphabet)]
					}
					tag = append(tag, b)
				}
				tags = append(tags, string(tag))
			}
			if len(tags) > 0 {
				lists = append(lists, tags)
			}
		}
		s := NewSpace(ix)
		for pass := 0; pass < 2; pass++ {
			got := make([]*CompiledTheme, len(lists))
			for i, tags := range lists {
				got[i] = s.Compile(tags)
				if want := ThemeKey(tags); got[i].Key != want {
					t.Fatalf("pass %d: Compile(%q).Key = %q, want ThemeKey %q", pass, tags, got[i].Key, want)
				}
			}
			for i := range lists {
				for j := range lists[:i] {
					if (got[i] == got[j]) != (got[i].Key == got[j].Key) {
						t.Fatalf("pass %d: %q and %q: same theme %v, keys %q and %q",
							pass, lists[i], lists[j], got[i] == got[j], got[i].Key, got[j].Key)
					}
				}
			}
		}
	})
}

// TestCanonicalTermsMemoBounded feeds CanonicalTerms more distinct
// spellings of one term than the raw-term memo holds: the memo stays within
// its cap, every spelling keeps the one canonical form and ordinal, and the
// hit count is the number of terms the memo held, a spelling met earlier
// in the same call included.
func TestCanonicalTermsMemoBounded(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	const word = "electricityusage" // 16 letters: 2^16 case patterns
	wantOrd := s.TermOrd(word)
	for i := 0; i < termsRawCap+termsRawCap/2; i++ {
		b := []byte(word)
		for k := range b {
			if i>>k&1 == 1 {
				b[k] -= 'a' - 'A'
			}
		}
		if i >= 1<<len(word) {
			b = append([]byte(" "), b...)
		}
		terms, ords := []string{string(b), string(b)}, make([]uint32, 2)
		hits := s.CanonicalTerms(terms, ords)
		for k := range terms {
			if terms[k] != word || ords[k] != wantOrd {
				t.Fatalf("CanonicalTerms(%q) term %d = %q, %d; want %q, %d", b, k, terms[k], ords[k], word, wantOrd)
			}
		}
		if hits != 1 {
			t.Fatalf("CanonicalTerms(%q, %q): %d hits, want 1 (a new spelling twice)", b, b, hits)
		}
		terms[0], terms[1] = string(b), string(b)
		if hits := s.CanonicalTerms(terms, ords); hits != 2 {
			t.Fatalf("CanonicalTerms(%q) again: %d hits, want 2", b, hits)
		}
	}
	s.termsRawMu.RLock()
	n := len(s.termsRaw)
	s.termsRawMu.RUnlock()
	if n > termsRawCap {
		t.Errorf("raw-term memo grew to %d entries, cap is %d", n, termsRawCap)
	}
}
