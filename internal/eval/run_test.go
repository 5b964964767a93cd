package eval

import (
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
	envOnce  sync.Once
	envSpace *semantics.Space
	envWork  *workload.Workload
)

func testEnv(t testing.TB) (*semantics.Space, *workload.Workload) {
	t.Helper()
	envOnce.Do(func() {
		envSpace = semantics.NewSpace(index.Build(corpus.GenerateDefault()))
		envWork = workload.Generate(workload.Config{
			Seed:            3,
			SeedEvents:      30,
			ExpandedPerSeed: 4,
			Subscriptions:   12,
			MaxPredicates:   3,
		})
	})
	return envSpace, envWork
}

// perfectScorer cheats with the ground truth; Run must then report F1 = 1.
type perfectScorer struct {
	w     *workload.Workload
	index map[*event.Event]int
	subs  map[*event.Subscription]int
}

func newPerfectScorer(w *workload.Workload) *perfectScorer {
	p := &perfectScorer{
		w:     w,
		index: make(map[*event.Event]int, len(w.Events)),
		subs:  make(map[*event.Subscription]int, len(w.ApproxSubs)),
	}
	for i, e := range w.Events {
		p.index[e] = i
	}
	for i, s := range w.ApproxSubs {
		p.subs[s] = i
	}
	return p
}

func (p *perfectScorer) Score(s *event.Subscription, e *event.Event) float64 {
	if p.w.Relevant(p.subs[s], p.index[e]) {
		return 1
	}
	return 0
}

func TestRunPerfectScorer(t *testing.T) {
	_, w := testEnv(t)
	res := Run(newPerfectScorer(w), w)
	if res.F1 != 1 {
		t.Errorf("perfect scorer F1 = %v, want 1", res.F1)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
	if res.Events != len(w.Events) || res.Subscriptions != len(w.ApproxSubs) {
		t.Errorf("sizes wrong: %+v", res)
	}
}

// inverseScorer scores exactly the irrelevant events; F1 must be 0.
type inverseScorer struct{ p *perfectScorer }

func (i inverseScorer) Score(s *event.Subscription, e *event.Event) float64 {
	return 1 - i.p.Score(s, e)
}

func TestRunInverseScorer(t *testing.T) {
	_, w := testEnv(t)
	res := Run(inverseScorer{p: newPerfectScorer(w)}, w)
	// Every subscription still finds its relevant events at the ranking
	// tail... no: irrelevant events score 1, relevant score 0, so relevant
	// events are never retrieved.
	if res.F1 != 0 {
		t.Errorf("inverse scorer F1 = %v, want 0", res.F1)
	}
}

func TestRunMatcherBeatsInverse(t *testing.T) {
	space, w := testEnv(t)
	w.ClearThemes()
	m := matcher.New(space, matcher.WithThematic(false))
	res := Run(m, w)
	if res.F1 <= 0.05 {
		t.Errorf("non-thematic matcher F1 = %v, suspiciously low", res.F1)
	}
	t.Logf("non-thematic F1=%.3f throughput=%.0f ev/s", res.F1, res.Throughput)
}

func TestRunGridShape(t *testing.T) {
	space, w := testEnv(t)
	m := matcher.New(space)
	cells := RunGrid(m, space, w, GridConfig{
		Sizes:   []int{2, 8},
		Samples: 2,
		Seed:    1,
	})
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	wantPairs := [][2]int{{2, 2}, {2, 8}, {8, 2}, {8, 8}}
	for i, c := range cells {
		if c.EventSize != wantPairs[i][0] || c.SubSize != wantPairs[i][1] {
			t.Errorf("cell %d = (%d,%d), want %v", i, c.EventSize, c.SubSize, wantPairs[i])
		}
		if c.Samples != 2 {
			t.Errorf("cell %d samples = %d", i, c.Samples)
		}
		if c.MeanF1 < 0 || c.MeanF1 > 1 {
			t.Errorf("cell %d F1 = %v", i, c.MeanF1)
		}
		if c.MeanThroughput <= 0 {
			t.Errorf("cell %d throughput = %v", i, c.MeanThroughput)
		}
	}
	// Themes must be cleared afterwards.
	for _, e := range w.Events {
		if len(e.Theme) != 0 {
			t.Fatal("grid left themes applied")
		}
	}
}

func TestRunGridDeterministic(t *testing.T) {
	space, w := testEnv(t)
	m := matcher.New(space)
	cfg := GridConfig{Sizes: []int{3}, Samples: 2, Seed: 9}
	a := RunGrid(m, space, w, cfg)
	b := RunGrid(m, space, w, cfg)
	if a[0].MeanF1 != b[0].MeanF1 {
		t.Errorf("grid F1 not deterministic: %v vs %v", a[0].MeanF1, b[0].MeanF1)
	}
}

// TestRunGridParallelMatchesSerial checks the parallel grid runner is a
// pure wall-clock optimization: cell order, sizes, and F1 statistics are
// bit-for-bit those of the serial run (throughput, being a wall-time
// measurement, is exempt). Run with -race: workers share nothing but the
// immutable index.
func TestRunGridParallelMatchesSerial(t *testing.T) {
	space, w := testEnv(t)
	m := matcher.New(space)
	cfg := GridConfig{Sizes: []int{2, 5, 8}, Samples: 2, Seed: 11}
	serial := RunGrid(m, space, w, cfg)

	ix := space.Index()
	cfg.Parallelism = 4
	cfg.NewScorer = func() (Scorer, *semantics.Space) {
		sp := semantics.NewSpace(ix)
		return matcher.New(sp), sp
	}
	par := RunGrid(m, space, w, cfg)

	if len(par) != len(serial) {
		t.Fatalf("parallel cells = %d, serial = %d", len(par), len(serial))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if p.EventSize != s.EventSize || p.SubSize != s.SubSize || p.Samples != s.Samples {
			t.Errorf("cell %d shape: parallel (%d,%d,%d), serial (%d,%d,%d)",
				i, p.EventSize, p.SubSize, p.Samples, s.EventSize, s.SubSize, s.Samples)
		}
		if p.MeanF1 != s.MeanF1 || p.StdF1 != s.StdF1 {
			t.Errorf("cell %d F1: parallel %v±%v, serial %v±%v",
				i, p.MeanF1, p.StdF1, s.MeanF1, s.StdF1)
		}
	}
	// The parallel path must not leave the shared workload themed.
	for _, e := range w.Events {
		if len(e.Theme) != 0 {
			t.Fatal("parallel grid left themes applied to the shared workload")
		}
	}
}

func TestSummarize(t *testing.T) {
	cells := []Cell{
		{MeanF1: 0.8, MeanThroughput: 400},
		{MeanF1: 0.5, MeanThroughput: 300},
		{MeanF1: 0.3, MeanThroughput: 100},
	}
	baseline := Result{F1: 0.6, Throughput: 200}
	s := Summarize(cells, baseline)
	if !almostEqual(s.MeanF1, (0.8+0.5+0.3)/3) {
		t.Errorf("MeanF1 = %v", s.MeanF1)
	}
	if s.MaxF1 != 0.8 || s.MaxThroughput != 400 {
		t.Errorf("max = %v/%v", s.MaxF1, s.MaxThroughput)
	}
	if !almostEqual(s.FracF1AboveBaseline, 1.0/3.0) {
		t.Errorf("FracF1AboveBaseline = %v", s.FracF1AboveBaseline)
	}
	if !almostEqual(s.FracThroughputAboveBaseline, 2.0/3.0) {
		t.Errorf("FracThroughputAboveBaseline = %v", s.FracThroughputAboveBaseline)
	}
	if got := Summarize(nil, baseline); got.MeanF1 != 0 {
		t.Errorf("empty summarize = %+v", got)
	}
}

func TestDefaultAndPaperGridSizes(t *testing.T) {
	if got := PaperGridSizes(); len(got) != 30 || got[0] != 1 || got[29] != 30 {
		t.Errorf("PaperGridSizes = %v", got)
	}
	def := DefaultGridSizes()
	if len(def) == 0 || def[len(def)-1] != 30 {
		t.Errorf("DefaultGridSizes = %v", def)
	}
}
