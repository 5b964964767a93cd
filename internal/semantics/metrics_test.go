package semantics

import (
	"slices"
	"strings"
	"testing"

	"thematicep/internal/telemetry"
)

func TestSpaceMetricsHitMiss(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	// Cold relatedness misses both unit projections, thematic and
	// full-space; a warm repeat hits them.
	theme := []string{"transport"}
	s.Relatedness("car", theme, "vehicle", nil)
	cold := s.ProjectionMetric()
	s.Relatedness("car", theme, "vehicle", nil)
	warm := s.ProjectionMetric()

	if cold.Misses != 2 || cold.Entries != 2 {
		t.Errorf("cold lookups: %+v, want 2 misses and 2 entries", cold)
	}
	if warm.Hits != cold.Hits+2 || warm.Misses != cold.Misses {
		t.Errorf("warm repeat: cold %+v warm %+v, want 2 more hits and no miss", cold, warm)
	}
	if warm.HitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0", warm.HitRate())
	}

	// Each projection miss is one computation.
	tv, pv := s.Computes()
	if tv+pv != warm.Misses {
		t.Errorf("computes = %d+%d, projection misses = %d", tv, pv, warm.Misses)
	}

	var names []string
	for _, m := range s.Metrics() {
		names = append(names, m.Name)
	}
	if want := []string{"projection", "score"}; !slices.Equal(names, want) {
		t.Errorf("Metrics caches = %v, want %v", names, want)
	}
}

func TestSpaceWriteMetricsLints(t *testing.T) {
	s := NewSpace(evalIndexFor(t))
	s.Relatedness("car", []string{"transport"}, "vehicle", []string{"transport"})
	var sb strings.Builder
	s.WriteMetrics(telemetry.NewExpo(&sb))
	out := sb.String()
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("semantics exposition fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		`thematicep_semantics_cache_hits_total{cache="projection"}`,
		`thematicep_semantics_cache_misses_total{cache="projection"}`,
		`thematicep_semantics_cache_entries{cache="projection"}`,
		`thematicep_semantics_singleflight_waits_total{cache="score"}`,
		`thematicep_semantics_projection_computes_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, gone := range []string{`cache="termvec"`, `cache="themebasis"`, `cache="unit"`, `_shard_`} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries %q", gone)
		}
	}
}
