package query

import (
	"io"

	"thematicep/internal/telemetry"
)

// WriteMetrics implements broker.Collector: per-query counters and window
// occupancy gauges plus the shared event-to-detection latency histogram,
// in the thematicep_query_* namespace. Stats() sorts by name, so the
// exposition is stable across scrapes.
func (e *Engine) WriteMetrics(w io.Writer) {
	stats := e.Stats()
	telemetry.WriteGauge(w, "thematicep_query_active",
		"Currently registered continuous queries.", len(stats))
	for _, st := range stats {
		labels := []telemetry.Label{{Key: "query", Value: st.Name}}
		telemetry.WriteCounterVec(w, "thematicep_query_events_total",
			"Deliveries fed into a query's pattern.", labels, st.Fed)
		telemetry.WriteCounterVec(w, "thematicep_query_deduped_total",
			"Duplicate event IDs suppressed before a query's pattern.", labels, st.Deduped)
		telemetry.WriteCounterVec(w, "thematicep_query_detections_total",
			"Detections emitted by a query.", labels, st.Detections)
		telemetry.WriteCounterVec(w, "thematicep_query_dropped_total",
			"Detections dropped by a query's overflow policy.", labels, st.Dropped)
		telemetry.WriteGaugeVec(w, "thematicep_query_window_events",
			"Window state held by a query's pattern (open partials, buffered matches, pending triggers).",
			labels, float64(st.Occupancy))
	}
	e.detectHist.WriteMetrics(w)
}
