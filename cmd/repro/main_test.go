package main

import (
	"strings"
	"testing"

	"thematicep/internal/eval"
	"thematicep/internal/workload"
)

// TestCheckHeadline pins the E6 bands -check gates on: each claim fails on
// its own, and a summary inside every band passes.
func TestCheckHeadline(t *testing.T) {
	in := eval.GridSummary{MeanF1: 0.715, FracF1AboveBaseline: 0.77, FracThroughputAboveBaseline: 0.99}
	if err := checkHeadline(in); err != nil {
		t.Fatalf("inside the bands: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*eval.GridSummary)
		want string
	}{
		{"f1 cells", func(s *eval.GridSummary) { s.FracF1AboveBaseline = 0.69 }, "F1 cells"},
		{"throughput cells", func(s *eval.GridSummary) { s.FracThroughputAboveBaseline = 0.91 }, "throughput cells"},
		{"mean f1 low", func(s *eval.GridSummary) { s.MeanF1 = 0.69 }, "mean thematic F1"},
		{"mean f1 high", func(s *eval.GridSummary) { s.MeanF1 = 0.75 }, "mean thematic F1"},
	} {
		s := in
		c.edit(&s)
		if err := checkHeadline(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestPriorLeavesSharedSpaceUnmemoized pins E8 to its own space:
// PrecomputeScores turns a space's score memo on for good, so E8 must not
// call it on the space the later experiments share, or they would all run
// with the memo on.
func TestPriorLeavesSharedSpaceUnmemoized(t *testing.T) {
	env, err := newEnv(false, 42, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	env.work = workload.Generate(workload.Config{
		Seed: 42, SeedEvents: 8, ExpandedPerSeed: 2, Subscriptions: 8, MaxPredicates: 3,
	})
	for _, exp := range []struct {
		name string
		run  func(*env0) error
	}{{"prior", runPrior}, {"sweep", runSweep}} {
		if err := exp.run(env); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if _, scores := env.space.CacheStats(); scores != 0 {
			t.Fatalf("after %s the shared space memoizes %d scores, want 0", exp.name, scores)
		}
	}
}
