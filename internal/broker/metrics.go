package broker

import (
	"io"
	"net/http"
	"sort"

	"thematicep/internal/telemetry"
)

// Collector contributes additional metric families to the broker's
// /metrics output (for example the cluster federation counters or the
// semantic space's cache statistics).
type Collector interface {
	WriteMetrics(w io.Writer)
}

// The Write* helpers re-export the telemetry exposition writers so
// existing collectors (and external code) keep a single import point.
// When w is a *telemetry.Expo — as it is for everything routed through
// MetricsHandler — HELP/TYPE headers are deduplicated per family, so
// several collectors may contribute series of the same family.

// WriteCounter emits one cumulative counter in the Prometheus text format.
func WriteCounter(w io.Writer, name, help string, value uint64) {
	telemetry.WriteCounter(w, name, help, value)
}

// WriteCounterVec emits one labeled series of a counter family.
func WriteCounterVec(w io.Writer, name, help string, labels []telemetry.Label, value uint64) {
	telemetry.WriteCounterVec(w, name, help, labels, value)
}

// WriteGauge emits one gauge in the Prometheus text format.
func WriteGauge(w io.Writer, name, help string, value int) {
	telemetry.WriteGauge(w, name, help, value)
}

// WriteGaugeFloat emits one float gauge in the Prometheus text format.
func WriteGaugeFloat(w io.Writer, name, help string, value float64) {
	telemetry.WriteGaugeFloat(w, name, help, value)
}

// WriteGaugeVec emits one labeled series of a gauge family.
func WriteGaugeVec(w io.Writer, name, help string, labels []telemetry.Label, value float64) {
	telemetry.WriteGaugeVec(w, name, help, labels, value)
}

// WriteMetrics emits every broker-owned family: the cumulative counters,
// the pipeline latency histograms, the subscriber queue-depth gauges, and
// (with pruning on) the subscription-index occupancy gauges. It is the
// Collector form of MetricsHandler's body, so a broker can be embedded in
// another endpoint.
func (b *Broker) WriteMetrics(w io.Writer) {
	st := b.Stats()
	WriteCounter(w, "thematicep_broker_published_total", "Events accepted by Publish.", st.Published)
	WriteCounter(w, "thematicep_broker_shed_total", "Publishes rejected by load shedding (saturated match pipeline).", st.Shed)
	WriteCounter(w, "thematicep_broker_scanned_total", "Event-subscription pairs scored by the matcher.", st.Scanned)
	WriteCounter(w, "thematicep_broker_pruned_total", "Pairs skipped by the pruning index (provably score 0).", st.Pruned)
	WriteCounter(w, "thematicep_broker_matched_total", "Event-subscription matches.", st.Matched)
	WriteCounter(w, "thematicep_broker_delivered_total", "Deliveries enqueued to subscribers.", st.Delivered)
	WriteCounter(w, "thematicep_broker_dropped_total", "Deliveries dropped by the overflow policy.", st.Dropped)
	WriteCounter(w, "thematicep_broker_batches_total", "Publish calls admitted (each is one batch; a serial Publish is a batch of one).", st.Batches)
	WriteCounter(w, "thematicep_broker_batch_terms_interned_total", "Terms canonicalized fresh by the batch interner.", st.BatchTermsInterned)
	WriteCounter(w, "thematicep_broker_batch_terms_reused_total", "Term canonicalizations served from the batch interner.", st.BatchTermsReused)
	WriteCounter(w, "thematicep_broker_batch_rows_computed_total", "Similarity rows computed through the semantic kernel (arena memo misses).", st.BatchRowsComputed)
	WriteCounter(w, "thematicep_broker_batch_rows_reused_total", "Similarity rows served from the arena memos.", st.BatchRowsReused)
	WriteGauge(w, "thematicep_broker_subscribers", "Currently active subscriptions.", st.Subscribers)
	draining := 0
	if b.Draining() {
		draining = 1
	}
	WriteGauge(w, "thematicep_broker_draining", "1 while the broker is draining (refusing publishes, flushing queues).", draining)

	b.batchSizeHist.WriteMetrics(w)
	b.publishHist.WriteMetrics(w)
	b.compileHist.WriteMetrics(w)
	b.enumerateHist.WriteMetrics(w)
	b.scoreHist.WriteMetrics(w)
	b.deliverHist.WriteMetrics(w)
	b.candHist.WriteMetrics(w)

	// Queue depth per subscriber, sorted for a stable exposition.
	b.mu.RLock()
	type depth struct {
		id string
		n  int
	}
	depths := make([]depth, 0, len(b.subs))
	for id, s := range b.subs {
		depths = append(depths, depth{id, s.queued()})
	}
	b.mu.RUnlock()
	sort.Slice(depths, func(i, j int) bool { return depths[i].id < depths[j].id })
	for _, d := range depths {
		WriteGaugeVec(w, "thematicep_broker_queue_depth",
			"Pending deliveries in a subscriber's queue.",
			[]telemetry.Label{{Key: "subscription", Value: d.id}}, float64(d.n))
	}

	if b.index != nil {
		ix := b.index.Stats()
		WriteGauge(w, "thematicep_subindex_subscriptions", "Subscriptions tracked by the pruning index.", ix.Subscriptions)
		WriteGauge(w, "thematicep_subindex_themes", "Distinct theme groups in the pruning index.", ix.Themes)
		WriteGauge(w, "thematicep_subindex_buckets", "Exact-term posting buckets in the pruning index.", ix.Buckets)
		WriteGauge(w, "thematicep_subindex_approx_entries", "Approximate-only subscriptions (never prunable).", ix.ApproxEntries)
		WriteGauge(w, "thematicep_subindex_max_bucket", "Largest posting-list occupancy.", ix.MaxBucket)
		WriteGauge(w, "thematicep_subindex_terms", "Interned exact terms (attributes plus attribute-value pairs).", ix.Terms)
		WriteGauge(w, "thematicep_subindex_free_slots", "Recycled dense subscription ids awaiting reuse.", ix.FreeSlots)
		WriteGaugeFloat(w, "thematicep_subindex_avg_bucket", "Mean posting-list occupancy across anchor terms.", ix.AvgBucket)
	}
}

// MetricsHandler exposes the broker's counters, latency histograms, and
// gauges in the Prometheus text exposition format, so a deployed thematicd
// can be scraped:
//
//	mux := http.NewServeMux()
//	mux.Handle("/metrics", broker.MetricsHandler(b))
//
// Extra collectors (for example a cluster node or a semantic space) append
// their families to the same endpoint. The whole response is routed
// through one telemetry.Expo, so collectors contributing different label
// sets of a shared family produce a single HELP/TYPE header.
func MetricsHandler(b *Broker, extra ...Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		e := telemetry.NewExpo(w)
		b.WriteMetrics(e)
		for _, c := range extra {
			c.WriteMetrics(e)
		}
	})
}
