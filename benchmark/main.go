// Command benchmark is the loopback end-to-end benchmark for thematicd: it
// builds and launches real daemons, drives them over TCP as a client would,
// checks every delivery against a full-scan oracle, and prints every metric
// by name with its unit. See README.md.
//
//	go run ./benchmark                         # every workload, plain + traced
//	go run ./benchmark -selfcheck              # two plain sets, compared against the bounds
//	go run ./benchmark -workload fanout -seed 7 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// contract is BENCHMARK.json: what the benchmark promises to report.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract() (*contract, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload  = flag.String("workload", "", "run one workload and end with one JSON result line (default: every workload, plain then traced)")
		seed      = flag.Int64("seed", 7, "workload generation seed")
		seconds   = flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
		trace     = flag.Int("trace", 0, "1 = the traced run reporting per-layer metrics; 0 = the plain run reporting end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two plain sets back to back and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()

	// The harness runs from the root of the checkout it measures.
	if _, err := os.Stat(filepath.Join("cmd", "thematicd")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	c, err := readContract()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(c.RunSeconds)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The harness keeps Go's default heap target on purpose. The client
	// codec allocates per delivery, and a larger target (400 was tried) lets
	// the heap climb to 700 MB over the first seconds of a phase: on this VM
	// every page touched for the first time is a trip to the host, and the
	// sat phase ran at half speed until the climb ended.

	e := env{outDir: filepath.Join("benchmark", "out")}
	e.indexPath = filepath.Join(e.outDir, "index.bin")
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	if e.bin, err = buildDaemon(".", e.outDir); err != nil {
		return err
	}
	if err := e.ensureIndex(); err != nil {
		return err
	}

	switch {
	case *workload != "":
		sp, ok := specByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		return one(e, c, sp, runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0})
	case *selfcheck:
		return selfCheck(e, c, runOpts{seed: *seed, seconds: *seconds})
	default:
		return fullSet(e, runOpts{seed: *seed, seconds: *seconds})
	}
}

// one runs a single workload and ends with the driver's result line: the
// metrics BENCHMARK.json declares for this kind of run, no more, no fewer.
func one(e env, c *contract, sp spec, o runOpts) error {
	res, err := runWorkload(e, sp, o, os.Stdout)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, res)
	declared := c.EndToEnd
	if o.trace {
		declared = c.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s declared in BENCHMARK.json was not measured", sp.Name, d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", sp.Name, d.Name, m.Unit, d.Unit)
		}
		line.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// fullSet runs every workload plain and traced and prints both tables.
func fullSet(e env, o runOpts) error {
	var all []*result
	failed := 0
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			o.trace = trace
			res, err := runWorkload(e, sp, o, os.Stdout)
			if err != nil {
				return err
			}
			printMetrics(os.Stdout, res)
			all = append(all, res)
			failed += res.Failed
		}
	}
	if err := writeJSON(filepath.Join(e.outDir, "results.json"), all); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// selfCheck runs the plain set twice on the same code and compares every
// end-to-end metric's relative difference against its bound: the benchmark
// checking that it can tell a regression from its own noise. The two runs
// of a workload are back to back, so the machine's slow drift has the
// least time to come between them.
func selfCheck(e env, c *contract, o runOpts) error {
	sets := [2]map[string]*result{{}, {}}
	for _, sp := range specs {
		for i := range sets {
			res, err := runWorkload(e, sp, o, os.Stdout)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d operations failed", sp.Name, res.Failed)
			}
			sets[i][sp.Name] = res
		}
	}
	over := 0
	fmt.Printf("%-12s %-22s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, sp := range specs {
		for _, d := range c.EndToEnd {
			a, b := sets[0][sp.Name].Metrics[d.Name].Value, sets[1][sp.Name].Metrics[d.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			mark := ""
			if diff > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-12s %-22s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", sp.Name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ between two runs of the same code by more than their bound", over)
	}
	return nil
}
