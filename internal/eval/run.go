package eval

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/workload"
)

// Scorer assigns a relevance score to an event for a subscription; 0 means
// no match. The approximate matcher's top-1 mapping score, and the binary
// baselines' 0/1 decisions, both implement it.
type Scorer interface {
	Score(s *event.Subscription, e *event.Event) float64
}

// PreparedScorer is the optional prepare-once extension of Scorer.
// *matcher.Matcher satisfies it structurally; Run uses it to score through
// the ScorePrepared reference loop (subscriptions prepared once, each event
// prepared once and scored against every prepared subscription), the loop
// the paper's throughput figures measure. The broker scores through
// ScoreBatchInArena instead; TestPublishOracle holds its deliveries
// bit-identical to the reference scorer's, and
// TestScoreBatchInArenaMatchesScorePrepared holds the two kernels
// bit-identical pair by pair.
type PreparedScorer interface {
	Scorer
	PrepareSubscription(s *event.Subscription) *matcher.PreparedSubscription
	PrepareEvent(e *event.Event) *matcher.PreparedEvent
	ScorePrepared(ps *matcher.PreparedSubscription, pe *matcher.PreparedEvent) float64
}

// Result summarizes one sub-experiment: matching quality and time
// efficiency over the whole workload.
type Result struct {
	// F1 is the mean maximal F1 over subscriptions (§5.1).
	F1 float64
	// Throughput is processed events per second: every event is matched
	// against every subscription, as a broker would.
	Throughput float64
	// Elapsed is the total matching wall time.
	Elapsed time.Duration
	// Events and Subscriptions record the workload size.
	Events, Subscriptions int
}

// Run matches every workload event against every approximate subscription
// with the given scorer and computes the sub-experiment result. Themes must
// already be applied to the workload (or cleared for non-thematic runs).
func Run(scorer Scorer, w *workload.Workload) Result {
	nSubs := len(w.ApproxSubs)
	scores := make([][]float64, nSubs)
	for si := range scores {
		scores[si] = make([]float64, len(w.Events))
	}

	start := time.Now()
	if m, ok := scorer.(PreparedScorer); ok {
		// Fast path: prepare subscriptions once and each event once, as a
		// production broker would (subscriptions are long-lived; one event
		// is matched against every subscription). Scoring goes through the
		// ScorePrepared reference loop end to end, not the broker's arena
		// kernel; the oracles tie the two together bit for bit.
		prepared := make([]*matcher.PreparedSubscription, nSubs)
		for si, s := range w.ApproxSubs {
			prepared[si] = m.PrepareSubscription(s)
		}
		for ei, e := range w.Events {
			pe := m.PrepareEvent(e)
			for si := range prepared {
				scores[si][ei] = m.ScorePrepared(prepared[si], pe)
			}
		}
	} else {
		for ei, e := range w.Events {
			for si, s := range w.ApproxSubs {
				scores[si][ei] = scorer.Score(s, e)
			}
		}
	}
	elapsed := time.Since(start)

	f1Sum := 0.0
	for si := range w.ApproxSubs {
		f1Sum += MaxF1(scores[si], func(ei int) bool { return w.Relevant(si, ei) })
	}
	res := Result{
		Elapsed:       elapsed,
		Events:        len(w.Events),
		Subscriptions: nSubs,
	}
	if nSubs > 0 {
		res.F1 = f1Sum / float64(nSubs)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(len(w.Events)) / secs
	}
	return res
}

// Cell is one cell of the theme-size grid: the sample statistics of the
// sub-experiments sharing (event theme size, subscription theme size).
// It backs Figures 7 (MeanF1), 8 (StdF1), 9 (MeanThroughput), and
// 10 (StdThroughput).
type Cell struct {
	EventSize, SubSize            int
	MeanF1, StdF1                 float64
	MeanThroughput, StdThroughput float64
	Samples                       int
	// Wall is the cell's total wall time across its sub-experiments
	// (sampling, theme application, cache resets, and matching), the
	// telemetry complement to MeanThroughput's matching-only rate.
	Wall time.Duration
	// ProjHitRate is the projection-cache hit rate over the cell's
	// matching work (0 when the scorer has no space). Caches are reset per
	// sub-experiment, so this isolates within-sub-experiment reuse.
	ProjHitRate float64
}

// GridConfig controls the grid experiment of §5.2.4.
type GridConfig struct {
	// Sizes is the list of theme sizes forming both grid axes
	// (paper: 1..30).
	Sizes []int
	// Samples is the number of random theme combinations per cell
	// (paper: 5).
	Samples int
	// Seed makes the theme sampling deterministic.
	Seed int64
	// Zipf switches tag sampling to the realistic-tagging model
	// (DESIGN.md §4 ablation).
	Zipf bool
	// Progress, when non-nil, receives a line per completed cell.
	Progress func(string)
	// Parallelism runs grid cells on up to this many workers (values <= 1
	// keep the serial path). Parallel runs require NewScorer.
	Parallelism int
	// NewScorer builds an independent scorer+space pair for one worker.
	// Each worker owns its own semantic space (sub-experiments reset caches,
	// which must not interleave across cells) and its own workload clone
	// (theme application mutates the workload in place). The returned space
	// may be nil for scorers without one.
	NewScorer func() (Scorer, *semantics.Space)
}

// DefaultGridSizes is the reduced deterministic grid of DESIGN.md §5.
func DefaultGridSizes() []int { return []int{1, 2, 3, 5, 7, 10, 15, 20, 25, 30} }

// PaperGridSizes is the full 1..30 axis.
func PaperGridSizes() []int {
	out := make([]int, 30)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// RunGrid executes the grid of sub-experiments: for every (event size, sub
// size) pair it samples theme combinations, applies them to the workload,
// runs the scorer, and aggregates per-cell statistics. The semantic space's
// caches are reset before each sub-experiment so that every sub-experiment
// is independent, as in the paper. Cells are returned row-major over
// cfg.Sizes x cfg.Sizes.
func RunGrid(scorer Scorer, space *semantics.Space, w *workload.Workload, cfg GridConfig) []Cell {
	if cfg.Samples <= 0 {
		cfg.Samples = 2
	}
	if cfg.Parallelism > 1 && cfg.NewScorer != nil {
		return runGridParallel(w, cfg)
	}
	cells := make([]Cell, 0, len(cfg.Sizes)*len(cfg.Sizes))
	for _, es := range cfg.Sizes {
		for _, ss := range cfg.Sizes {
			cells = append(cells, runGridCell(scorer, space, w, cfg, es, ss))
		}
	}
	w.ClearThemes()
	return cells
}

// runGridCell runs the cfg.Samples sub-experiments of one (event size, sub
// size) cell. The per-cell rng seed depends only on (cfg.Seed, es, ss), so a
// cell's result is identical whether cells run serially or in parallel.
func runGridCell(scorer Scorer, space *semantics.Space, w *workload.Workload, cfg GridConfig, es, ss int) Cell {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(es)<<32 ^ int64(ss)<<16))
	f1s := make([]float64, 0, cfg.Samples)
	thrs := make([]float64, 0, cfg.Samples)
	cellStart := time.Now()
	var projBefore semantics.CacheMetric
	if space != nil {
		projBefore = space.ProjectionMetric()
	}
	for n := 0; n < cfg.Samples; n++ {
		var combo workload.ThemeCombination
		if cfg.Zipf {
			combo = w.SampleThemesZipf(rng, es, ss)
		} else {
			combo = w.SampleThemes(rng, es, ss)
		}
		w.ApplyThemes(combo)
		if space != nil {
			space.ResetCaches()
		}
		res := Run(scorer, w)
		f1s = append(f1s, res.F1)
		thrs = append(thrs, res.Throughput)
	}
	cell := Cell{EventSize: es, SubSize: ss, Samples: cfg.Samples, Wall: time.Since(cellStart)}
	if space != nil {
		// Hit rate from this cell's delta of the cumulative counters
		// (counters survive ResetCaches; only entries are dropped).
		after := space.ProjectionMetric()
		hits := after.Hits - projBefore.Hits
		if total := hits + after.Misses - projBefore.Misses; total > 0 {
			cell.ProjHitRate = float64(hits) / float64(total)
		}
	}
	cell.MeanF1, cell.StdF1 = MeanStd(f1s)
	cell.MeanThroughput, cell.StdThroughput = MeanStd(thrs)
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("cell e=%d s=%d: F1=%.3f thr=%.0f ev/s wall=%s projhit=%.2f",
			es, ss, cell.MeanF1, cell.MeanThroughput, cell.Wall.Round(time.Millisecond), cell.ProjHitRate))
	}
	return cell
}

// runGridParallel distributes grid cells over cfg.Parallelism workers. Each
// worker gets its own scorer+space from cfg.NewScorer and its own workload
// clone, so cache resets and theme application stay cell-local. Cells land in
// a pre-sized slice by index, preserving the serial row-major order; F1
// values are bit-for-bit identical to the serial run (throughput, a wall-time
// measurement, is not deterministic on either path).
func runGridParallel(w *workload.Workload, cfg GridConfig) []Cell {
	type job struct{ es, ss int }
	jobs := make([]job, 0, len(cfg.Sizes)*len(cfg.Sizes))
	for _, es := range cfg.Sizes {
		for _, ss := range cfg.Sizes {
			jobs = append(jobs, job{es, ss})
		}
	}
	cells := make([]Cell, len(jobs))
	var next atomic.Int64
	workers := cfg.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scorer, space := cfg.NewScorer()
			local := w.Clone()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				cells[i] = runGridCell(scorer, space, local, cfg, jobs[i].es, jobs[i].ss)
			}
		}()
	}
	wg.Wait()
	return cells
}

// GridSummary aggregates a grid against a baseline result for the paper's
// headline comparisons (§5.3).
type GridSummary struct {
	// MeanF1 and MeanThroughput average over all cells.
	MeanF1, MeanThroughput float64
	// MaxF1 and MaxThroughput are the best cell values.
	MaxF1, MaxThroughput float64
	// FracF1AboveBaseline is the fraction of cells whose mean F1 exceeds
	// the baseline F1 (paper: >70%); FracThroughputAboveBaseline likewise
	// (paper: >92%).
	FracF1AboveBaseline, FracThroughputAboveBaseline float64
}

// Summarize computes the headline statistics of a grid relative to the
// non-thematic baseline result.
func Summarize(cells []Cell, baseline Result) GridSummary {
	var s GridSummary
	if len(cells) == 0 {
		return s
	}
	f1Above, thrAbove := 0, 0
	for _, c := range cells {
		s.MeanF1 += c.MeanF1
		s.MeanThroughput += c.MeanThroughput
		if c.MeanF1 > s.MaxF1 {
			s.MaxF1 = c.MeanF1
		}
		if c.MeanThroughput > s.MaxThroughput {
			s.MaxThroughput = c.MeanThroughput
		}
		if c.MeanF1 > baseline.F1 {
			f1Above++
		}
		if c.MeanThroughput > baseline.Throughput {
			thrAbove++
		}
	}
	n := float64(len(cells))
	s.MeanF1 /= n
	s.MeanThroughput /= n
	s.FracF1AboveBaseline = float64(f1Above) / n
	s.FracThroughputAboveBaseline = float64(thrAbove) / n
	return s
}
