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

// WriteMetrics emits every broker-owned family: the accounting table's
// counters (one snapshot, see Stats), the pipeline latency histograms, the
// subscriber queue-depth gauges, and (with pruning on) the
// subscription-index occupancy gauges. It is the Collector form of
// MetricsHandler's body, so a broker can be embedded in another endpoint.
func (b *Broker) WriteMetrics(w io.Writer) {
	v := b.counts()
	for c, row := range accounting {
		if row.reason == "" {
			telemetry.WriteCounter(w, row.family, row.help, v[c])
		}
	}
	for c, row := range accounting { // after the plain counters: one family's series stay together
		if row.reason != "" {
			telemetry.WriteCounterVec(w, row.family, row.help,
				[]telemetry.Label{{Key: "stage", Value: row.stage}, {Key: "reason", Value: row.reason}}, v[c])
		}
	}
	draining := 0
	if b.Draining() {
		draining = 1
	}
	telemetry.WriteGauge(w, "thematicep_broker_draining", "1 while the broker is draining (refusing publishes, flushing queues).", draining)

	b.batchSizeHist.WriteMetrics(w)
	b.publishHist.WriteMetrics(w)
	for _, h := range b.stageHist {
		if h != nil {
			h.WriteMetrics(w)
		}
	}
	b.candHist.WriteMetrics(w)

	// Queue depth per subscriber, sorted for a stable exposition.
	type depth struct {
		id string
		n  int
	}
	subs := b.subs.AppendAll(nil)
	depths := make([]depth, 0, len(subs))
	for _, s := range subs {
		depths = append(depths, depth{s.id, s.queued()})
	}
	telemetry.WriteGauge(w, "thematicep_broker_subscribers", "Currently active subscriptions.", len(depths))
	sort.Slice(depths, func(i, j int) bool { return depths[i].id < depths[j].id })
	for _, d := range depths {
		telemetry.WriteGaugeVec(w, "thematicep_broker_queue_depth",
			"Pending deliveries in a subscriber's queue.",
			[]telemetry.Label{{Key: "subscription", Value: d.id}}, float64(d.n))
	}

	if b.prune {
		ix := b.subs.Stats()
		telemetry.WriteGauge(w, "thematicep_subindex_subscriptions", "Subscriptions tracked by the pruning index.", ix.Subscriptions)
		telemetry.WriteGauge(w, "thematicep_subindex_buckets", "Non-empty anchor posting lists in the pruning index.", ix.Buckets)
		telemetry.WriteGauge(w, "thematicep_subindex_approx_entries", "Approximate-only subscriptions (never prunable).", ix.ApproxEntries)
		telemetry.WriteGauge(w, "thematicep_subindex_max_bucket", "Largest posting-list occupancy.", ix.MaxBucket)
		telemetry.WriteGauge(w, "thematicep_subindex_terms", "Interned exact terms (attributes plus attribute-value pairs).", ix.Terms)
		telemetry.WriteGauge(w, "thematicep_subindex_free_slots", "Recycled dense subscription ids awaiting reuse.", ix.FreeSlots)
		telemetry.WriteGaugeFloat(w, "thematicep_subindex_avg_bucket", "Mean posting-list occupancy across anchor terms.", ix.AvgBucket)
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
