package broker

import (
	"math/rand"
	"sync"
	"testing"

	"thematicep/internal/corpus"
	"thematicep/internal/event"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/workload"
)

var (
	pruneSpaceOnce sync.Once
	pruneSpace     *semantics.Space
)

func evalSpace(t testing.TB) *semantics.Space {
	t.Helper()
	pruneSpaceOnce.Do(func() {
		pruneSpace = semantics.NewSpace(index.Build(corpus.GenerateDefault()))
	})
	return pruneSpace
}

// thematicMatcher is the real engine over the evaluation space.
func thematicMatcher(t testing.TB) *matcher.Matcher {
	return matcher.New(evalSpace(t))
}

// mixedThemeWorkload builds a seeded workload whose events and
// subscriptions carry varied theme tag sets (several distinct compiled-theme
// groups, including empty themes), with both exact and fully approximate
// subscriptions.
func mixedThemeWorkload(t testing.TB, seed int64) ([]*event.Subscription, []*event.Event) {
	t.Helper()
	w := workload.Generate(workload.Config{
		Seed:            seed,
		SeedEvents:      30,
		ExpandedPerSeed: 2,
		Subscriptions:   30,
		MaxPredicates:   3,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	pool := w.ThemePool()
	pickTheme := func() []string {
		n := rng.Intn(3) // 0, 1 or 2 tags
		th := make([]string, 0, n)
		for len(th) < n {
			th = append(th, pool[rng.Intn(len(pool))])
		}
		return th
	}

	var subs []*event.Subscription
	for i := range w.ExactSubs {
		e, a := w.ExactSubs[i], w.ApproxSubs[i]
		e.Theme = pickTheme()
		a.Theme = pickTheme()
		subs = append(subs, e, a)
	}
	for _, ev := range w.Events {
		ev.Theme = pickTheme()
	}
	return subs, w.Events
}

// TestPruningDisabledForPlainMatchers verifies the conservative gate: a
// matcher without the prepare-once contract is never pruned, so baselines
// with looser exact-term semantics keep full-scan behavior.
func TestPruningDisabledForPlainMatchers(t *testing.T) {
	b := New(exactMatcher()) // pruning defaults on, but not an Engine
	defer b.Close()
	if b.prune {
		t.Fatal("plain matcher got a pruning index")
	}
	if _, err := b.Subscribe(parkingSub()); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(parkingEvent("p1")); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Pruned != 0 || st.Scanned != 1 {
		t.Errorf("stats = %+v, want full scan with 0 pruned", st)
	}
}
