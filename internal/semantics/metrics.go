package semantics

import (
	"io"

	"thematicep/internal/telemetry"
)

// CacheMetric is one cache's cumulative lookup and coalescing counters.
type CacheMetric struct {
	Name        string  // projection, score
	Hits        uint64  // lookups answered from the cache
	Misses      uint64  // lookups that fell through to a computation
	Entries     int     // current cached entries
	Waits       uint64  // single-flight waiters coalesced onto another fill
	WaitSeconds float64 // total time those waiters spent blocked
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (m CacheMetric) HitRate() float64 {
	if t := m.Hits + m.Misses; t > 0 {
		return float64(m.Hits) / float64(t)
	}
	return 0
}

// metricOf snapshots one cache's counters.
func metricOf[V any](name string, c *cache[V]) CacheMetric {
	h, m := c.stats()
	w, ws := c.waitStats()
	return CacheMetric{Name: name, Hits: h, Misses: m, Entries: c.len(), Waits: w, WaitSeconds: ws}
}

// Metrics snapshots every cache's counters, in a stable order: the
// projection working set (see ProjectionMetric), then the score memo.
func (s *Space) Metrics() []CacheMetric {
	return []CacheMetric{s.ProjectionMetric(), metricOf("score", &s.scores)}
}

// ProjectionMetric returns the combined counters of the unit projection
// caches — the full-space cache plus every compiled theme's — which hold
// every projection the measure reads, so a miss is one projection
// computation or a single-flight wait on one. This is the hit-rate input
// for evaluation runs and the repro harness.
func (s *Space) ProjectionMetric() CacheMetric {
	out := metricOf("projection", &s.unitFull)
	for _, t := range s.compiledThemes() {
		tm := metricOf("projection", &t.units)
		out.Hits += tm.Hits
		out.Misses += tm.Misses
		out.Entries += tm.Entries
		out.Waits += tm.Waits
		out.WaitSeconds += tm.WaitSeconds
	}
	return out
}

// WriteMetrics emits the space's cache statistics in the Prometheus text
// format, making *Space a broker.Collector (satisfied structurally; this
// package does not import the broker):
//
//   - hit/miss counters, entry gauges, and single-flight wait counters per
//     cache (cache label: projection, score),
//   - term-vector and projection computation counters.
//
// Route the writer through a telemetry.Expo (MetricsHandler does) so the
// labeled families emit one HELP/TYPE header across all series.
func (s *Space) WriteMetrics(w io.Writer) {
	for _, m := range s.Metrics() {
		l := []telemetry.Label{{Key: "cache", Value: m.Name}}
		telemetry.WriteCounterVec(w, "thematicep_semantics_cache_hits_total",
			"Cache lookups answered from the cache.", l, m.Hits)
		telemetry.WriteCounterVec(w, "thematicep_semantics_cache_misses_total",
			"Cache lookups that fell through to a computation.", l, m.Misses)
		telemetry.WriteGaugeVec(w, "thematicep_semantics_cache_entries",
			"Current cached entries.", l, float64(m.Entries))
		telemetry.WriteCounterVec(w, "thematicep_semantics_singleflight_waits_total",
			"Lookups coalesced onto another goroutine's in-progress computation.", l, m.Waits)
		telemetry.WriteCounterVecFloat(w, "thematicep_semantics_singleflight_wait_seconds_total",
			"Total time coalesced lookups spent blocked.", l, m.WaitSeconds)
	}
	tv, pv := s.Computes()
	telemetry.WriteCounter(w, "thematicep_semantics_term_computes_total",
		"Full-space term-vector constructions (cold path).", tv)
	telemetry.WriteCounter(w, "thematicep_semantics_projection_computes_total",
		"Thematic projection computations (Algorithm 1 executions).", pv)
}
