package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs a miniature of every workload (200 subscriptions, one
// second per phase), plain and traced, against real daemons. It checks the
// contract, not the numbers: every metric BENCHMARK.json names is reported
// with the declared unit, no operation fails, and the trace file is a
// well-formed span forest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches thematicd daemons")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		}
	}

	e := env{outDir: t.TempDir()}
	e.indexPath = filepath.Join(e.outDir, "index.bin")
	if e.bin, err = buildDaemon("..", e.outDir); err != nil {
		t.Fatal(err)
	}
	if err := e.ensureIndex(); err != nil {
		t.Fatal(err)
	}

	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				res, err := runWorkload(e, sp, runOpts{seed: 11, seconds: 2, trace: trace, subs: 200}, io.Discard)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v, %d of %d operations failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				declared := c.EndToEnd
				if trace {
					declared = c.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("trace=%v: %d metrics reported, BENCHMARK.json declares %d", trace, len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not reported", trace, d.Name)
					case m.Unit == "" || m.Unit != d.Unit:
						t.Errorf("trace=%v: metric %s has unit %q, declared %q", trace, d.Name, m.Unit, d.Unit)
					}
				}
			}
			checkTrace(t, filepath.Join(e.outDir, sp.Name+".trace.json"))
		})
	}
}

// checkTrace parses a trace file and checks that it is a forest: every
// non-root span names a parent that is in the file, and no span ends before
// it starts.
func checkTrace(t *testing.T, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 || f.Machine.GoVersion == "" || f.Run.Workload == "" {
		t.Fatalf("%s: %d spans, machine %+v, run %+v", path, len(f.Spans), f.Machine, f.Run)
	}
	ids := make(map[int32]bool, len(f.Spans))
	names := map[string]bool{}
	for _, s := range f.Spans {
		ids[s.ID] = true
		names[s.Name] = true
	}
	for _, s := range f.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("%s: span %d (%s) has parent %d, which is not in the file", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
	}
	for _, want := range []string{"event", "deliver", "client.subscribe", "client.unsubscribe", "probe.broker.wire.encode_delivery"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}
