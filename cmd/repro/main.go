// Command repro regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	repro -exp all                 # run everything at quick scale
//	repro -exp fig7 -full          # one experiment at paper scale
//	repro -exp headline -csvdir out
//	repro -exp headline -check      # exit non-zero outside the E6 bands
//
// Quick scale keeps the full pipeline (corpus → index → space → workload →
// grid) but reduces the event set and grid so a run completes in minutes on
// one core. -full switches to the paper-scale workload (166 seeds expanded
// to ~14.7k events, 94 subscriptions) and the 1..30 grid with 5 samples per
// cell; expect hours.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/corpus"
	"thematicep/internal/eval"
	"thematicep/internal/figures"
	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
	"thematicep/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: all, fig7, fig8, fig9, fig10, baseline, headline, significance, table1, prior, sweep, topk, ablation, tagging, shape, diag, pruning, burst, scale")
		full     = fs.Bool("full", false, "paper-scale workload and grid (slow)")
		seed     = fs.Int64("seed", 7, "master seed")
		csvdir   = fs.String("csvdir", "", "directory for CSV output (optional)")
		samples  = fs.Int("samples", 0, "samples per grid cell (default 2 quick / 5 full)")
		verbose  = fs.Bool("v", false, "per-cell progress")
		parallel = fs.Int("parallel", 1, "grid workers; >1 runs cells concurrently with identical F1 results")
		benchout = fs.String("benchjson", "", "write headline metrics as JSON to this file")
		check    = fs.Bool("check", false, "with -exp headline: fail when a claim leaves its EXPERIMENTS.md E6 band")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := newEnv(*full, *seed, *samples, *verbose, *csvdir)
	if err != nil {
		return err
	}
	env.parallel = *parallel
	env.benchjson = *benchout
	env.check = *check
	fmt.Printf("corpus: %d docs, %d terms; workload: %d events (%d seeds), %d subscriptions\n\n",
		env.space.Index().NumDocs(), env.space.Index().VocabSize(),
		len(env.work.Events), len(env.work.Seeds), len(env.work.ApproxSubs))

	experiments := map[string]func(*env0) error{
		"baseline":     runBaseline,
		"fig7":         runFigures, // fig7-10 share the grid run
		"fig8":         runFigures,
		"fig9":         runFigures,
		"fig10":        runFigures,
		"headline":     runHeadline,
		"table1":       runTable1,
		"prior":        runPrior,
		"sweep":        runSweep,
		"topk":         runTopK,
		"ablation":     runAblation,
		"tagging":      runTagging,
		"shape":        runShape,
		"diag":         runDiag,
		"significance": runSignificance,
		"pruning":      runPruning,
		"burst":        runBurst,
		"scale":        runScale,
	}
	if *exp == "all" {
		for _, name := range []string{"baseline", "fig7", "headline", "significance", "table1", "prior", "sweep", "topk", "ablation", "tagging", "pruning"} {
			if err := experiments[name](env); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	f, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return f(env)
}

// env0 carries the shared experiment environment.
type env0 struct {
	space     *semantics.Space
	work      *workload.Workload
	full      bool
	seed      int64
	samples   int
	verbose   bool
	csvdir    string
	parallel  int
	benchjson string
	check     bool

	// memoized results shared between experiments
	baselineRes  *eval.Result
	baselineWarm float64 // throughput of a second baseline run on the warm space
	gridCells    []eval.Cell
	pruningRes   []brokerRun // [full scan, pruned], once runPruning has run
}

// brokerRun is one timed broker publish pass over the workload.
type brokerRun struct {
	Stats   broker.Stats
	Elapsed time.Duration
}

func newEnv(full bool, seed int64, samples int, verbose bool, csvdir string) (*env0, error) {
	ccfg := corpus.DefaultConfig()
	ix := index.Build(corpus.Generate(corpusDomains(), ccfg))
	space := semantics.NewSpace(ix)

	wcfg := quickWorkloadConfig(seed)
	if full {
		wcfg = workload.PaperConfig()
		wcfg.Seed = seed
	}
	if samples <= 0 {
		samples = 2
		if full {
			samples = 5
		}
	}
	if csvdir != "" {
		if err := os.MkdirAll(csvdir, 0o755); err != nil {
			return nil, err
		}
	}
	return &env0{
		space:   space,
		work:    workload.Generate(wcfg),
		full:    full,
		seed:    seed,
		samples: samples,
		verbose: verbose,
		csvdir:  csvdir,
	}, nil
}

func quickWorkloadConfig(seed int64) workload.Config {
	return workload.Config{
		Seed:            seed,
		SeedEvents:      80,
		ExpandedPerSeed: 6,
		Subscriptions:   40,
		MaxPredicates:   3,
	}
}

func (e *env0) gridSizes() []int {
	if e.full {
		return eval.PaperGridSizes()
	}
	return eval.DefaultGridSizes()
}

func (e *env0) progress() func(string) {
	if !e.verbose {
		return nil
	}
	return func(s string) { fmt.Println("  ", s) }
}

// baseline runs the non-thematic approximate matcher (E5) on a cold space,
// so its throughput includes every projection build. It then reruns it on
// the warm space (baselineWarm): that throughput is the matching cost
// alone, steady where the cold one swings with the builds.
func (e *env0) baseline() eval.Result {
	if e.baselineRes != nil {
		return *e.baselineRes
	}
	e.work.ClearThemes()
	e.space.ResetCaches()
	m := matcher.New(e.space, matcher.WithThematic(false))
	res := eval.Run(m, e.work)
	e.baselineRes = &res
	e.baselineWarm = eval.Run(m, e.work).Throughput
	return res
}

// grid runs (and memoizes) the thematic grid (E1-E4).
func (e *env0) grid() []eval.Cell {
	if e.gridCells != nil {
		return e.gridCells
	}
	m := matcher.New(e.space)
	cfg := eval.GridConfig{
		Sizes:    e.gridSizes(),
		Samples:  e.samples,
		Seed:     e.seed,
		Progress: e.progress(),
	}
	if e.parallel > 1 {
		cfg.Parallelism = e.parallel
		ix := e.space.Index()
		cfg.NewScorer = func() (eval.Scorer, *semantics.Space) {
			sp := semantics.NewSpace(ix)
			return matcher.New(sp), sp
		}
	}
	e.gridCells = eval.RunGrid(m, e.space, e.work, cfg)
	return e.gridCells
}

func (e *env0) writeCSV(name string, cells []eval.Cell) error {
	if e.csvdir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(e.csvdir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return figures.CSV(f, cells)
}

// writeSVG writes one figure file into the csv directory.
func (e *env0) writeSVG(name string, render func(io.Writer) error) error {
	if e.csvdir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(e.csvdir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return render(f)
}

func runBaseline(e *env0) error {
	res := e.baseline()
	fmt.Println("== E5: non-thematic approximate baseline (§5.2.5) ==")
	fmt.Printf("paper:    F1 = 62%%, throughput = 202 events/sec\n")
	fmt.Printf("measured: F1 = %.0f%%, throughput = %.0f events/sec (%d events x %d subs in %v)\n\n",
		100*res.F1, res.Throughput, res.Events, res.Subscriptions, res.Elapsed.Round(msRound))
	return nil
}

func runFigures(e *env0) error {
	base := e.baseline()
	cells := e.grid()

	fmt.Println("== E1/Fig. 7: thematic matcher effectiveness (mean F1 per theme-size cell) ==")
	figures.Heatmap(os.Stdout, "F1 heatmap (x: event theme size, y: subscription theme size)",
		cells, func(c eval.Cell) float64 { return c.MeanF1 }, base.F1)
	fmt.Println()

	fmt.Println("== E2/Fig. 8: effectiveness sample error ==")
	var f1s, f1errs []float64
	for _, c := range cells {
		f1s = append(f1s, c.MeanF1)
		f1errs = append(f1errs, c.StdF1)
	}
	figures.Scatter(os.Stdout, "sample error vs F1", "F1", "std", f1s, f1errs)
	fmt.Println()

	fmt.Println("== E3/Fig. 9: thematic matcher throughput (mean events/sec per cell) ==")
	figures.Heatmap(os.Stdout, "throughput heatmap (x: event theme size, y: subscription theme size)",
		cells, func(c eval.Cell) float64 { return c.MeanThroughput }, base.Throughput)
	fmt.Println()

	fmt.Println("== E4/Fig. 10: throughput sample error ==")
	var thrs, thrErrs []float64
	for _, c := range cells {
		thrs = append(thrs, c.MeanThroughput)
		thrErrs = append(thrErrs, c.StdThroughput)
	}
	figures.Scatter(os.Stdout, "sample error vs throughput", "events/sec", "std", thrs, thrErrs)
	fmt.Println()

	if err := e.writeCSV("grid.csv", cells); err != nil {
		return err
	}
	for _, fig := range []struct {
		name   string
		render func(io.Writer) error
	}{
		{name: "fig7.svg", render: func(w io.Writer) error {
			return figures.HeatmapSVG(w, "Fig. 7: thematic F1 by theme sizes", cells,
				func(c eval.Cell) float64 { return c.MeanF1 }, base.F1)
		}},
		{name: "fig8.svg", render: func(w io.Writer) error {
			return figures.ScatterSVG(w, "Fig. 8: effectiveness sample error", "F1", "std", f1s, f1errs)
		}},
		{name: "fig9.svg", render: func(w io.Writer) error {
			return figures.HeatmapSVG(w, "Fig. 9: thematic throughput by theme sizes", cells,
				func(c eval.Cell) float64 { return c.MeanThroughput }, base.Throughput)
		}},
		{name: "fig10.svg", render: func(w io.Writer) error {
			return figures.ScatterSVG(w, "Fig. 10: throughput sample error", "events/sec", "std", thrs, thrErrs)
		}},
	} {
		if err := e.writeSVG(fig.name, fig.render); err != nil {
			return err
		}
	}
	return nil
}

// brokerPass publishes every workload event through a broker holding both
// the exact and the fully approximate subscriptions, with the pruning index
// on or off, and returns the broker counters and the publish wall time.
// Subscriber queues are minimal (the pass measures matching, not delivery
// consumption; drop-oldest keeps Publish non-blocking), and Matched counts
// are comparable across passes because matching is queue-independent.
func (e *env0) brokerPass(pruning bool) (brokerRun, error) {
	e.space.ResetCaches()
	m := matcher.New(e.space)
	b := broker.New(
		m,
		broker.WithPruning(pruning),
		broker.WithReplayBuffer(0),
		broker.WithQueueSize(1),
	)
	defer b.Close()
	for i := range e.work.ExactSubs {
		if _, err := b.Subscribe(e.work.ExactSubs[i]); err != nil {
			return brokerRun{}, err
		}
		if _, err := b.Subscribe(e.work.ApproxSubs[i]); err != nil {
			return brokerRun{}, err
		}
	}
	start := time.Now()
	for _, ev := range e.work.Events {
		if err := b.Publish(ev); err != nil {
			return brokerRun{}, err
		}
	}
	return brokerRun{Stats: b.Stats(), Elapsed: time.Since(start)}, nil
}

// pruningComparison runs (and memoizes) the two broker passes over a
// sampled theme combination. Match counts must agree exactly: pruning only
// skips pairs that provably score zero.
func (e *env0) pruningComparison() ([]brokerRun, error) {
	if e.pruningRes != nil {
		return e.pruningRes, nil
	}
	combo := e.work.SampleThemes(rand.New(rand.NewSource(e.seed)), 2, 1)
	e.work.ApplyThemes(combo)
	defer e.work.ClearThemes()

	full, err := e.brokerPass(false)
	if err != nil {
		return nil, err
	}
	pruned, err := e.brokerPass(true)
	if err != nil {
		return nil, err
	}
	if full.Stats.Matched != pruned.Stats.Matched {
		return nil, fmt.Errorf("pruning changed matches: %d full scan vs %d pruned",
			full.Stats.Matched, pruned.Stats.Matched)
	}
	e.pruningRes = []brokerRun{full, pruned}
	return e.pruningRes, nil
}

// runPruning compares broker publish throughput with the subscription
// pruning index on and off (E7; the §7 "efficient indexing for thematic
// projection" direction).
func runPruning(e *env0) error {
	runs, err := e.pruningComparison()
	if err != nil {
		return err
	}
	full, pruned := runs[0], runs[1]

	nev := float64(len(e.work.Events))
	fmt.Println("== E7: broker candidate pruning (subindex; §7 indexing direction) ==")
	fmt.Printf("subscriptions: %d exact + %d approximate; events: %d\n",
		len(e.work.ExactSubs), len(e.work.ApproxSubs), len(e.work.Events))
	fmt.Printf("full scan: %d pairs scored, %d matches, %.0f events/sec\n",
		full.Stats.Scanned, full.Stats.Matched, nev/full.Elapsed.Seconds())
	fmt.Printf("pruned:    %d pairs scored (%d pruned, %.0f%%), %d matches, %.0f events/sec\n",
		pruned.Stats.Scanned, pruned.Stats.Pruned,
		100*float64(pruned.Stats.Pruned)/float64(full.Stats.Scanned),
		pruned.Stats.Matched, nev/pruned.Elapsed.Seconds())
	fmt.Println()
	return nil
}

func runHeadline(e *env0) error {
	base := e.baseline()
	sum := eval.Summarize(e.grid(), base)
	fmt.Println("== E6: headline claims (§abstract, §5.3) ==")
	rows := []struct {
		metric, paper string
		measured      string
	}{
		{"max F1 (thematic)", "~85%", fmt.Sprintf("%.0f%%", 100*sum.MaxF1)},
		{"mean F1 (thematic)", "71%", fmt.Sprintf("%.0f%%", 100*sum.MeanF1)},
		{"baseline F1 (non-thematic)", "62%", fmt.Sprintf("%.0f%%", 100*base.F1)},
		{"F1 cells above baseline", ">70%", fmt.Sprintf("%.0f%%", 100*sum.FracF1AboveBaseline)},
		{"mean throughput (thematic)", "320 ev/s", fmt.Sprintf("%.0f ev/s", sum.MeanThroughput)},
		{"baseline throughput", "202 ev/s", fmt.Sprintf("%.0f ev/s", base.Throughput)},
		{"baseline throughput, warm space", "-", fmt.Sprintf("%.0f ev/s", e.baselineWarm)},
		{"throughput cells above baseline", ">92%", fmt.Sprintf("%.0f%%", 100*sum.FracThroughputAboveBaseline)},
		{"throughput improvement", "~150%", fmt.Sprintf("%.0f%%", 100*(sum.MeanThroughput/base.Throughput-1))},
		{"F1 improvement (mean)", "~15%", fmt.Sprintf("%.0f%%", 100*(sum.MeanF1-base.F1))},
	}
	fmt.Printf("%-34s %-12s %s\n", "metric", "paper", "measured")
	for _, r := range rows {
		fmt.Printf("%-34s %-12s %s\n", r.metric, r.paper, r.measured)
	}
	fmt.Println()
	if e.benchjson != "" {
		if err := writeBenchJSON(e, base, sum); err != nil {
			return err
		}
	}
	if e.check {
		return checkHeadline(sum)
	}
	return nil
}

// checkHeadline gates the paper's shape on the EXPERIMENTS.md E6 bands:
// more than 70% of the grid's F1 cells and 92% of its throughput cells
// above the non-thematic baseline, and mean thematic F1 within 72 ± 2 pts.
func checkHeadline(sum eval.GridSummary) error {
	var out []string
	if sum.FracF1AboveBaseline < 0.70 {
		out = append(out, fmt.Sprintf("F1 cells above baseline %.0f%% < 70%%", 100*sum.FracF1AboveBaseline))
	}
	if sum.FracThroughputAboveBaseline < 0.92 {
		out = append(out, fmt.Sprintf("throughput cells above baseline %.0f%% < 92%%", 100*sum.FracThroughputAboveBaseline))
	}
	if math.Abs(sum.MeanF1-0.72) > 0.02 {
		out = append(out, fmt.Sprintf("mean thematic F1 %.1f%% outside 72 ± 2 pts", 100*sum.MeanF1))
	}
	if len(out) > 0 {
		return fmt.Errorf("headline outside its E6 bands: %s", strings.Join(out, "; "))
	}
	fmt.Println("headline check: inside the E6 bands")
	return nil
}

// writeBenchJSON emits the headline metrics in a flat machine-readable form
// for CI artifact tracking, plus the broker pruning comparison (E7) and a
// per-grid-cell breakdown (wall time and projection-cache hit rate) so cost
// regressions can be localized to a theme-size regime, not just the mean.
func writeBenchJSON(e *env0, base eval.Result, sum eval.GridSummary) error {
	cells := e.grid()
	grid := make([]map[string]any, 0, len(cells))
	var wallTotal time.Duration
	for _, c := range cells {
		wallTotal += c.Wall
		grid = append(grid, map[string]any{
			"event_size":      c.EventSize,
			"sub_size":        c.SubSize,
			"mean_f1":         c.MeanF1,
			"mean_throughput": c.MeanThroughput,
			"wall_seconds":    c.Wall.Seconds(),
			"proj_hit_rate":   c.ProjHitRate,
		})
	}
	doc := map[string]any{
		"experiment":               "headline",
		"full":                     e.full,
		"seed":                     e.seed,
		"samples":                  e.samples,
		"parallel":                 e.parallel,
		"baseline_f1":              base.F1,
		"baseline_throughput":      base.Throughput,
		"baseline_throughput_warm": e.baselineWarm,
		"mean_f1":                  sum.MeanF1,
		"max_f1":                   sum.MaxF1,
		"mean_throughput":          sum.MeanThroughput,
		"max_throughput":           sum.MaxThroughput,
		"frac_f1_above":            sum.FracF1AboveBaseline,
		"frac_thr_above":           sum.FracThroughputAboveBaseline,
		"grid_wall_seconds":        wallTotal.Seconds(),
		"grid_cells":               grid,
	}
	if runs, err := e.pruningComparison(); err == nil {
		full, pruned := runs[0], runs[1]
		nev := float64(len(e.work.Events))
		doc["broker_scanned_full"] = full.Stats.Scanned
		doc["broker_scanned_pruned"] = pruned.Stats.Scanned
		doc["broker_pruned_pairs"] = pruned.Stats.Pruned
		doc["broker_matched"] = pruned.Stats.Matched
		doc["broker_throughput_full"] = nev / full.Elapsed.Seconds()
		doc["broker_throughput_pruned"] = nev / pruned.Elapsed.Seconds()
	} else {
		fmt.Fprintln(os.Stderr, "repro: pruning comparison skipped:", err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.benchjson, append(data, '\n'), 0o644)
}

const msRound = 1000000 // one millisecond in time.Duration units
