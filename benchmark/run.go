package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// plainSetups is how many times a plain run sets the workload up; setup_s
// is their median, and only the last set-up is kept and measured.
const plainSetups = 3

// controlSeconds is the federated traced run's control phase: the cruise
// stream published straight at B, whose latency the hop is measured against.
const controlSeconds = 3

// runOpts is one invocation of one workload.
type runOpts struct {
	seed    int64
	seconds float64 // measured time: sat (plain), or solo + plain cruise + traced cruise (traced)
	trace   bool
	subs    int // population override for the smoke test; 0 = the spec's
}

// result is one run's outcome, in the one schema every result file uses.
type result struct {
	Schema    int               `json:"schema"`
	Machine   machineFacts      `json:"machine"`
	Run       runFacts          `json:"run"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// warmupError means the daemon delivered a different set than the oracle
// expects while drops were impossible: a correctness failure, not a load
// effect.
type warmupError struct {
	workload string
	p        *phase
}

func (e *warmupError) Error() string {
	return fmt.Sprintf("%s: warm-up delivery sets differ from the oracle: %d missing, %d duplicate, %d unexpected, %d publish errors (first: %v), stalled=%v",
		e.workload, e.p.mism.Missing, e.p.mism.Duplicate, e.p.mism.Unexpected, e.p.publishErrs, e.p.firstErr, e.p.stalled)
}

// runWorkload runs one workload once and returns its result. Progress goes
// to log.
func runWorkload(e env, sp spec, o runOpts, log io.Writer) (*result, error) {
	subs := sp.Subs
	if o.subs > 0 {
		subs = o.subs
	}
	mode := "plain"
	if o.trace {
		mode = "traced"
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	s := &session{
		env: e, sp: sp, tag: sp.Name + "." + mode,
		in:  generate(sp, o.seed, subs),
		rec: newRecorder(nil),
	}
	if err := s.daemonArgs(); err != nil {
		return nil, err
	}
	defer s.discard()

	setups := plainSetups
	if o.trace {
		setups = 1
	}
	var setupS []float64
	for i := range setups {
		if i > 0 {
			s.discard()
		}
		d, err := s.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.Name, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	fmt.Fprintf(log, "%s %s: %d subscriptions registered, set-ups %.3v s\n", sp.Name, mode, subs, setupS)

	space, err := loadSpace(e.indexPath)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	s.rec.expected = expectedSets(space, s.in, sp.Threshold)
	perEvent := 0
	for _, x := range s.rec.expected {
		perEvent += len(x)
	}
	fmt.Fprintf(log, "%s %s: oracle %.2f s, %.1f deliveries per event\n", sp.Name, mode,
		time.Since(t0).Seconds(), float64(perEvent)/float64(len(s.in.Events)))

	if err := s.openPublisher(); err != nil {
		return nil, err
	}
	warm, err := s.closedLoop(0, len(s.in.Events), false)
	if err != nil {
		return nil, err
	}
	if warm.failed() > 0 || warm.stalled {
		return nil, &warmupError{sp.Name, warm}
	}

	res := &result{
		Schema:  1,
		Machine: readMachine(),
		Run: runFacts{
			Workload: sp.Name, Seed: o.seed, Trace: o.trace, Subscriptions: subs,
			Templates: len(s.in.Events), Setups: setups, CruiseRate: sp.CruiseRate,
			Batch: sp.Batch, ChurnPace: sp.ChurnPace, Window: deliveryWindow, DaemonFlags: s.args,
		},
		Metrics: map[string]metric{},
	}
	count := func(phases ...*phase) {
		for _, p := range phases {
			res.Attempted += p.attempted()
			res.Failed += p.failed()
		}
	}
	count(warm)
	whole := time.Duration(o.seconds * float64(time.Second))

	if !o.trace {
		res.Run.SatSeconds = whole.Seconds()
		sat, err := s.closedLoop(whole, 0, false)
		if err != nil {
			return nil, err
		}
		count(sat)
		rss, err := s.teardown()
		if err != nil {
			return nil, err
		}
		endToEnd(res.Metrics, setupS, sat, rss)
	} else {
		third := whole / 3
		res.Run.SoloSeconds, res.Run.CruiseSeconds = third.Seconds(), third.Seconds()
		solo, err := s.closedLoop(third, 0, true)
		if err != nil {
			return nil, err
		}
		plain, _, err := s.cruise(third)
		if err != nil {
			return nil, err
		}
		before, err := s.scrapeAll()
		if err != nil {
			return nil, err
		}
		s.tr, s.rec.tr = tr, tr
		traced, ch, err := s.cruise(third)
		s.tr, s.rec.tr = nil, nil
		if err != nil {
			return nil, err
		}
		after, err := s.scrapeAll()
		if err != nil {
			return nil, err
		}
		count(solo, plain, traced)
		res.Attempted += ch.calls
		res.Failed += ch.errs

		var control *phase
		if sp.Federated {
			if control, err = s.controlPhase(); err != nil {
				return nil, err
			}
			count(control)
		}
		if _, err := s.teardown(); err != nil {
			return nil, err
		}
		restart, err := s.restart()
		if err != nil {
			return nil, fmt.Errorf("%s: restart: %w", sp.Name, err)
		}
		res.Attempted++
		pr := &probes{sp: sp, in: s.in, space: space, indexPath: e.indexPath, dir: filepath.Join(e.outDir, s.tag+".probe"),
			rec: s.rec, tr: tr, out: res.Metrics}
		if err := pr.all(); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", sp.Name, err)
		}
		perLayer(res.Metrics, solo, plain, traced, control, ch, restart, before, after)
		if err := tr.write(filepath.Join(e.outDir, sp.Name+".trace.json"), res.Machine, res.Run); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, writeJSON(filepath.Join(e.outDir, s.tag+".json"), res)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scrapeAll reads every daemon's /metrics.
func (s *session) scrapeAll() ([]scrape, error) {
	var out []scrape
	for _, d := range s.daemons {
		sc, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(m map[string]metric, setupS []float64, sat *phase, rssMB float64) {
	m["setup_s"] = metric{median(setupS), "s", len(setupS), setupS}

	// Every cycle of the closed loop completes the same events, so a
	// window's rate is the cycle's size over how long it took.
	rates := make([]float64, len(sat.edges)-1)
	for w := range rates {
		rates[w] = float64(sat.perWindow) / (float64(sat.edges[w+1]-sat.edges[w]) / float64(time.Second))
	}
	m["sat_events_per_s"] = bestMetric(rates, "ev/s", len(sat.completions), false)
	m["daemon_rss_mb"] = metric{Value: rssMB, Unit: "MB", Samples: 1}
}

// meanUs is a daemon histogram's mean over the scrape interval, in µs.
func (d scrape) meanUs(family string) float64 {
	if c := d[family+"_count"]; c > 0 {
		return d[family+"_sum"] / c * 1e6
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer fills the metrics of single layers that come from the traced
// cruise and the daemons' /metrics deltas around it; the probes have
// already added theirs to m.
func perLayer(m map[string]metric, solo, plain, traced, control *phase, ch *churn, restart time.Duration, before, after []scrape) {
	// Stage metrics come from the node that matches and delivers (the last
	// one); counters of the cluster, journal and runtime are summed over
	// the workload's daemons.
	last := len(after) - 1
	b := after[last].sub(before[last])
	sum, gauges := scrape{}, scrape{}
	for i := range after {
		sum = sum.add(after[i].sub(before[i]))
		gauges = gauges.add(after[i])
	}
	published := b["thematicep_broker_published_total"]
	frames := int(b["thematicep_broker_publish_seconds_count"])
	set := func(name string, v float64, unit string, n int) { m[name] = metric{Value: v, Unit: unit, Samples: n} }

	for _, st := range []string{"publish", "compile", "enumerate", "score", "deliver"} {
		fam := "thematicep_broker_" + st + "_seconds"
		set("broker."+st+"_mean_us", b.meanUs(fam), "us", int(b[fam+"_count"]))
	}
	set("broker.scanned_per_event", ratio(b["thematicep_broker_scanned_total"], published), "count", int(published))
	set("broker.pruned_ratio", ratio(b["thematicep_broker_pruned_total"], b["thematicep_broker_pruned_total"]+b["thematicep_broker_scanned_total"]), "ratio", int(published))
	set("broker.matched_per_event", ratio(b["thematicep_broker_matched_total"], published), "count", int(published))
	set("broker.delivered_per_event", ratio(b["thematicep_broker_delivered_total"], published), "count", int(published))
	set("broker.dropped", b["thematicep_broker_dropped_total"], "count", int(published))
	set("broker.shed", b["thematicep_broker_shed_total"], "count", int(published))
	set("broker.batch_size_mean", ratio(b["thematicep_publish_batch_size_sum"], b["thematicep_publish_batch_size_count"]), "count", int(b["thematicep_publish_batch_size_count"]))
	rows := b["thematicep_broker_batch_rows_reused_total"] + b["thematicep_broker_batch_rows_computed_total"]
	set("broker.batch_rows_reuse_ratio", ratio(b["thematicep_broker_batch_rows_reused_total"], rows), "ratio", int(rows))
	terms := b["thematicep_broker_batch_terms_reused_total"] + b["thematicep_broker_batch_terms_interned_total"]
	set("broker.batch_terms_reuse_ratio", ratio(b["thematicep_broker_batch_terms_reused_total"], terms), "ratio", int(terms))

	set("client.publish_call_p50_us", overall(traced.calls, quantileFn(0.5))*1000, "us", len(traced.calls))
	set("client.publish_call_p99_us", overall(traced.calls, quantileFn(0.99))*1000, "us", len(traced.calls))
	set("client.deliver_p99_ms", overall(traced.deliveries, quantileFn(0.99)), "ms", len(traced.deliveries))
	set("client.deliver_max_ms", overall(traced.deliveries, quantileFn(1)), "ms", len(traced.deliveries))
	var complete []sample
	for _, c := range traced.completions {
		if c.dur > 0 { // an event nobody receives completes at once
			complete = append(complete, c)
		}
	}
	set("client.event_complete_p50_ms", overall(complete, quantileFn(0.5)), "ms", len(complete))
	// One frame in flight, back to back: what an event costs and how long
	// it takes when nothing queues behind anything.
	per, n := windowed(solo.deliveries, solo.edges, quantileFn(0.5))
	m["client.solo_deliver_p50_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(solo.deliveries, solo.edges, quantileFn(0.9))
	m["client.solo_deliver_p90_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(solo.acks, solo.edges, quantileFn(0.5))
	m["client.solo_publish_ack_p50_ms"] = bestMetric(per, "ms", n, true)
	m["thematicd.solo_cpu_ms_per_event"] = bestMetric(solo.cpuPerEvent, "ms", solo.events, true)

	// The open loop's latencies, from the intended send time.
	per, n = windowed(traced.deliveries, traced.edges, quantileFn(0.5))
	m["client.deliver_p50_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(traced.deliveries, traced.edges, quantileFn(0.9))
	m["client.deliver_p90_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(traced.acks, traced.edges, quantileFn(0.5))
	m["client.publish_ack_p50_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(ch.subscribes, traced.edges, quantileFn(0.5))
	m["client.subscribe_p50_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(ch.subscribes, traced.edges, quantileFn(0.9))
	m["client.subscribe_p90_ms"] = bestMetric(per, "ms", n, true)
	per, n = windowed(ch.cycles, traced.edges, busyRateFn)
	m["client.churn_ops_per_s"] = bestMetric(per, "ops/s", n, false)
	m["thematicd.cruise_cpu_ms_per_event"] = bestMetric(traced.cpuPerEvent, "ms", traced.events, true)
	set("thematicd.restart_s", restart.Seconds(), "s", 1)

	hits, misses := sum["thematicep_semantics_cache_hits_total"], sum["thematicep_semantics_cache_misses_total"]
	set("semantics.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	set("semantics.projection_computes", sum[`thematicep_semantics_cache_misses_total{cache="projection"}`], "count", int(published))
	set("semantics.singleflight_waits", sum["thematicep_semantics_singleflight_waits_total"], "count", int(published))

	set("wal.appends", sum["thematicep_wal_appends_total"], "count", 1)
	set("wal.fsyncs", sum["thematicep_wal_fsyncs_total"], "count", 1)
	set("wal.log_bytes", gauges["thematicep_wal_log_bytes"], "B", 1)

	p50 := func(p *phase) float64 {
		per, _ := windowed(p.deliveries, p.edges, quantileFn(0.5))
		return best(per, true)
	}
	hop := 0.0
	if control != nil {
		hop = p50(traced) - p50(control)
	}
	set("cluster.hop_p50_ms", hop, "ms", len(traced.deliveries))
	set("cluster.hop_mean_us", sum.meanUs("thematicep_cluster_hop_seconds"), "us", int(sum["thematicep_cluster_hop_seconds_count"]))
	set("cluster.forwarded", sum["thematicep_cluster_forwarded_total"], "count", 1)
	set("cluster.received", sum["thematicep_cluster_received_total"], "count", 1)
	set("cluster.deduped", sum["thematicep_cluster_deduped_total"], "count", 1)
	set("cluster.queue_drops", sum["thematicep_cluster_peer_queue_drops_total"], "count", 1)
	set("cluster.forwards_shed", sum["thematicep_cluster_forwards_shed_total"], "count", 1)

	set("telemetry.gc_pause_total_ms", sum["thematicep_runtime_gc_pause_seconds_sum"]*1000, "ms", int(sum["thematicep_runtime_gc_total"]))
	set("telemetry.gc_count", sum["thematicep_runtime_gc_total"], "count", 1)
	set("telemetry.heap_inuse_mb", gauges["thematicep_runtime_heap_inuse_bytes"]/(1<<20), "MB", 1)
	set("telemetry.goroutines", gauges["thematicep_runtime_goroutines"], "count", 1)

	set("harness.send_late_p99_ms", overall(traced.late, quantileFn(0.99)), "ms", len(traced.late))
	set("harness.send_late_max_ms", overall(traced.late, quantileFn(1)), "ms", len(traced.late))
	set("harness.trace_overhead_ratio", ratio(p50(traced), p50(plain)), "ratio", len(traced.deliveries))

	// The budget: the mean time of each step a median delivery waits for,
	// summed, against the measured median. A frame is encoded, decoded and
	// run through the publish pipeline once; the event's deliveries then
	// share one subscriber connection, so the median one waits for half of
	// them to be encoded and decoded; a federated event also crosses the
	// hop.
	perFrame := ratio(b["thematicep_broker_delivered_total"], float64(frames))
	explained := m["broker.wire.encode_publish_us"].Value + m["broker.wire.decode_publish_us"].Value +
		m["broker.publish_mean_us"].Value + m["cluster.hop_mean_us"].Value +
		perFrame/2*(m["broker.wire.encode_delivery_us"].Value+m["broker.wire.decode_delivery_us"].Value)
	set("budget.explained_ratio", ratio(explained/1000, p50(traced)), "ratio", frames)
}

// printMetrics lists a result's metrics by name with unit and sample count.
func printMetrics(w io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d\n", k, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(w, "  %-40s %14d\n  %-40s %14d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
}
