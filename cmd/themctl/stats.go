package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/telemetry"
)

// runStats scrapes a thematicd metrics endpoint and prints a runtime
// summary: pipeline counters, the accounting identities, latency histogram
// quantiles, SLO burn state, process runtime health, cache hit rates, and
// (with -traces) recent sampled pipeline traces. With -lint the scrape is
// validated against the exposition-format invariants and the accounting
// identities (checkAccounting), and the command fails on any violation, so
// it doubles as a health check in CI.
//
// With -cluster the federation is discovered through /debug/peers and every
// member's /metrics is scraped and merged (histograms bucket-wise, counters
// summed), rendering cluster-wide quantiles plus a per-node breakdown. With
// -watch the scrape repeats on an interval and prints per-second deltas.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	url := fs.String("metrics", "http://127.0.0.1:9090", "metrics endpoint base URL (scheme://host:port)")
	lint := fs.Bool("lint", false, "validate the exposition format and the accounting identities, and fail on violations")
	traces := fs.Bool("traces", false, "also fetch and print /debug/traces")
	raw := fs.Bool("raw", false, "dump the raw exposition instead of the summary")
	cluster := fs.Bool("cluster", false, "discover the federation via /debug/peers and merge every member's scrape")
	watch := fs.Duration("watch", 0, "re-scrape on this interval and print per-second rate deltas (interrupt to stop)")
	timeout := fs.Duration("timeout", 10*time.Second, "HTTP timeout per scrape; fail fast instead of hanging on a wedged daemon")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimSuffix(*url, "/")
	base = strings.TrimSuffix(base, "/metrics")

	if *watch > 0 {
		return watchStats(base, *cluster, *watch, *timeout)
	}
	if *cluster {
		return clusterStats(base, *lint, *timeout)
	}

	body, err := httpGet(base+"/metrics", *timeout)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if *raw {
		os.Stdout.Write(body)
	}
	if *lint {
		if err := telemetry.Lint(bytes.NewReader(body)); err != nil {
			return fmt.Errorf("stats: exposition lint: %w", err)
		}
		if err := checkAccounting(func() ([]*telemetry.Family, error) { return scrapeOne(base, *timeout) }); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		fmt.Fprintln(os.Stderr, "exposition lint: ok")
	}
	if !*raw {
		if err := printSummary(body); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
	}
	if *traces {
		tb, err := httpGet(base+"/debug/traces", *timeout)
		if err != nil {
			return fmt.Errorf("stats: traces: %w", err)
		}
		printTraces(tb)
	}
	return nil
}

// nodeScrape is one member's parsed exposition.
type nodeScrape struct {
	node string
	fams []*telemetry.Family
}

// scrapeCluster discovers the federation and scrapes every member with a
// known metrics address. Unreachable members come back in the second return
// as "node: reason" lines instead of failing the scrape — a partial cluster
// view beats no view during an incident, and the caller renders the holes in
// the report itself so a missing member is visible in the output a human (or
// CI) actually reads, not just on stderr. The error return fires only when
// no member at all could be scraped.
func scrapeCluster(base string, lint bool, timeout time.Duration) ([]nodeScrape, []string, error) {
	peers := discoverPeers(base, timeout)
	var scrapes []nodeScrape
	var down []string
	skip := func(p peerInfo, reason string) {
		if p.State != "" && p.State != "alive" {
			reason = fmt.Sprintf("%s (membership says %s)", reason, p.State)
		}
		down = append(down, fmt.Sprintf("%s: %s", p.Node, reason))
	}
	for _, p := range peers {
		mb := metricsBase(p)
		if mb == "" {
			skip(p, "no metrics address advertised")
			continue
		}
		body, err := httpGet(mb+"/metrics", timeout)
		if err != nil {
			skip(p, err.Error())
			continue
		}
		if lint {
			if err := telemetry.Lint(bytes.NewReader(body)); err != nil {
				return nil, down, fmt.Errorf("exposition lint (%s): %w", p.Node, err)
			}
		}
		fams, err := telemetry.ParseExposition(bytes.NewReader(body))
		if err != nil {
			skip(p, fmt.Sprintf("bad exposition: %v", err))
			continue
		}
		scrapes = append(scrapes, nodeScrape{node: p.Node, fams: fams})
	}
	if len(scrapes) == 0 {
		return nil, down, fmt.Errorf("no reachable /metrics endpoint among %d directory entries", len(peers))
	}
	return scrapes, down, nil
}

// clusterStats merges every member's families (histograms bucket-wise,
// counters summed — merged quantiles are exactly the quantiles of the union
// stream) and prints the cluster summary plus per-node breakdowns for the
// publish path and the SLOs.
func clusterStats(base string, lint bool, timeout time.Duration) error {
	scrapes, down, err := scrapeCluster(base, lint, timeout)
	if err != nil {
		for _, d := range down {
			fmt.Fprintf(os.Stderr, "stats: %s\n", d)
		}
		return fmt.Errorf("stats: %w", err)
	}
	if lint {
		// The identities hold for a sum of brokers as for each.
		if err := checkAccounting(func() ([]*telemetry.Family, error) { return mergedScrape(base, timeout) }); err != nil {
			return fmt.Errorf("stats: cluster: %w", err)
		}
	}
	sets := make([][]*telemetry.Family, len(scrapes))
	names := make([]string, len(scrapes))
	for i, s := range scrapes {
		sets[i], names[i] = s.fams, s.node
	}
	// Membership metrics are each node's VIEW of the ring: summing views
	// triple-counts a healthy 3-node cluster and hides the one signal that
	// matters — members disagreeing. Exclude them from the merge and render
	// them per node below.
	for i := range sets {
		filtered := make([]*telemetry.Family, 0, len(sets[i]))
		for _, f := range sets[i] {
			if !membershipFamily(f.Name) {
				filtered = append(filtered, f)
			}
		}
		sets[i] = filtered
	}
	merged, err := telemetry.MergeFamilies(sets...)
	if err != nil {
		return fmt.Errorf("stats: merge: %w", err)
	}
	fmt.Printf("cluster: %d node(s) merged (%s)\n", len(scrapes), strings.Join(names, ", "))
	for _, d := range down {
		fmt.Printf("  unreachable: %s\n", d)
	}
	summarize(merged)

	fmt.Println("per-node publish latency (p50 / p95 / p99 / count):")
	for _, s := range scrapes {
		line := "(no observations)"
		for _, f := range s.fams {
			if f.Name == "thematicep_broker_publish_seconds" && f.Type == "histogram" {
				if count, p50, p95, p99 := quantiles(f); count > 0 {
					line = fmt.Sprintf("%s / %s / %s / %.0f",
						secs(p50), secs(p95), secs(p99), count)
				}
			}
		}
		fmt.Printf("  %-24s %s\n", s.node, line)
	}
	// Membership, like SLO status, is a per-node judgment: a partition shows
	// up as members whose ring views disagree, which a merged total erases.
	header := false
	for _, s := range scrapes {
		byName := familyIndex(s.fams)
		f := byName["thematicep_cluster_members"]
		if f == nil || len(f.Samples) == 0 {
			continue
		}
		if !header {
			fmt.Println("per-node membership view (alive / suspect / dead; joins / leaves / suspicions):")
			header = true
		}
		byState := map[string]float64{}
		for _, smp := range f.Samples {
			byState[smp.Labels["state"]] += smp.Value
		}
		churn := func(name string) float64 {
			cf := byName[name]
			if cf == nil {
				return 0
			}
			v := 0.0
			for _, smp := range cf.Samples {
				v += smp.Value
			}
			return v
		}
		fmt.Printf("  %-24s %.0f / %.0f / %.0f; %.0f / %.0f / %.0f\n", s.node,
			byState["alive"], byState["suspect"], byState["dead"],
			churn("thematicep_cluster_member_join_total"),
			churn("thematicep_cluster_member_leave_total"),
			churn("thematicep_cluster_member_suspect_total"))
	}
	// SLO status is a per-node judgment (a red member must not hide inside
	// a cluster-wide average), so the burn lines print per member.
	for _, s := range scrapes {
		printSLO(familyIndex(s.fams), "  ["+s.node+"] ")
	}
	return nil
}

// membershipFamily reports whether a family is a per-node ring view that
// must never be summed across members.
func membershipFamily(name string) bool {
	switch name {
	case "thematicep_cluster_members",
		"thematicep_cluster_member_join_total",
		"thematicep_cluster_member_leave_total",
		"thematicep_cluster_member_suspect_total":
		return true
	}
	return false
}

// watchStats re-scrapes on an interval and prints per-second deltas of the
// headline counters: event throughput, deliveries, load shedding, drops,
// and breaker flips. Rates come from counter differences, so a restarted
// daemon shows one negative-free resync line rather than garbage.
func watchStats(base string, cluster bool, interval, timeout time.Duration) error {
	type snap struct {
		published, delivered, shed, dropped, trips float64
	}
	scrapeFams := scrapeOne
	if cluster {
		scrapeFams = mergedScrape
	}
	scrape := func() (snap, error) {
		fams, err := scrapeFams(base, timeout)
		if err != nil {
			return snap{}, err
		}
		byName := familyIndex(fams)
		total := func(name string) float64 {
			f := byName[name]
			if f == nil {
				return 0
			}
			v := 0.0
			for _, s := range f.Samples {
				v += s.Value
			}
			return v
		}
		return snap{
			published: total("thematicep_broker_published_total"),
			delivered: total("thematicep_broker_delivered_total"),
			shed:      total("thematicep_broker_shed_total") + total("thematicep_cluster_forwards_shed_total"),
			dropped:   total("thematicep_broker_dropped_total") + total("thematicep_cluster_peer_queue_drops_total"),
			trips:     total("thematicep_cluster_breaker_trips_total"),
		}, nil
	}

	prev, err := scrape()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	fmt.Printf("%-10s %10s %10s %10s %10s %8s\n", "time", "ev/s", "deliver/s", "shed/s", "drop/s", "flips")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			return nil
		case <-tick.C:
			cur, err := scrape()
			if err != nil {
				fmt.Fprintf(os.Stderr, "stats: %v\n", err)
				continue
			}
			rate := func(now, was float64) float64 {
				if d := now - was; d > 0 {
					return d / interval.Seconds()
				}
				return 0
			}
			fmt.Printf("%-10s %10.1f %10.1f %10.1f %10.1f %8.0f\n",
				time.Now().Format("15:04:05"),
				rate(cur.published, prev.published),
				rate(cur.delivered, prev.delivered),
				rate(cur.shed, prev.shed),
				rate(cur.dropped, prev.dropped),
				cur.trips-prev.trips)
			prev = cur
		}
	}
}

// scrapeOne scrapes and parses one daemon's /metrics.
func scrapeOne(base string, timeout time.Duration) ([]*telemetry.Family, error) {
	body, err := httpGet(base+"/metrics", timeout)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(bytes.NewReader(body))
}

// mergedScrape scrapes every reachable federation member and merges their
// families.
func mergedScrape(base string, timeout time.Duration) ([]*telemetry.Family, error) {
	scrapes, _, err := scrapeCluster(base, false, timeout)
	if err != nil {
		return nil, err
	}
	sets := make([][]*telemetry.Family, len(scrapes))
	for i, s := range scrapes {
		sets[i] = s.fams
	}
	return telemetry.MergeFamilies(sets...)
}

// accountingTries bounds how often checkAccounting re-scrapes a broker whose
// counters are still moving.
const accountingTries = 10

// checkAccounting asserts the broker's accounting identities
// (broker.Conservation) on scrapes. A remainder, upstream minus downstream,
// may only be positive: a snapshot loads downstream terms first, so under
// traffic an upstream term can run ahead. A positive remainder is re-scraped
// until it closes; if the counters stop moving and it does not, the daemon is
// quiescent and a term is lost. A broker still busy after accountingTries
// scrapes passes on the sign alone.
func checkAccounting(scrape func() ([]*telemetry.Family, error)) error {
	var prev []broker.Balance
	for try := 1; ; try++ {
		fams, err := scrape()
		if err != nil {
			return err
		}
		bal := broker.Conservation(fams)
		open := -1
		for i, b := range bal {
			if b.Up < b.Down {
				return fmt.Errorf("accounting: %s: %.0f < %.0f, a downstream term ran ahead of its source", b.Identity, b.Up, b.Down)
			}
			if b.Up > b.Down && open < 0 {
				open = i
			}
		}
		switch {
		case open < 0:
			return nil
		case slices.Equal(bal, prev):
			b := bal[open]
			return fmt.Errorf("accounting: %s: %.0f = %.0f + %.0f unaccounted on a quiescent broker", b.Identity, b.Up, b.Down, b.Up-b.Down)
		case try == accountingTries:
			fmt.Fprintf(os.Stderr, "accounting: broker under traffic; remainders have the allowed sign\n")
			return nil
		}
		prev = bal
		time.Sleep(100 * time.Millisecond)
	}
}

func httpGet(url string, timeout time.Duration) ([]byte, error) {
	c := &http.Client{Timeout: timeout}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func printSummary(body []byte) error {
	families, err := telemetry.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return err
	}
	summarize(families)
	printSLO(familyIndex(families), "  ")
	return nil
}

func familyIndex(families []*telemetry.Family) map[string]*telemetry.Family {
	byName := make(map[string]*telemetry.Family, len(families))
	for _, f := range families {
		byName[f.Name] = f
	}
	return byName
}

// secs renders a quantile in seconds as a rounded duration.
func secs(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
}

func summarize(families []*telemetry.Family) {
	byName := familyIndex(families)
	counter := func(name string) float64 {
		f := byName[name]
		if f == nil {
			return 0
		}
		total := 0.0
		for _, s := range f.Samples {
			total += s.Value
		}
		return total
	}

	fmt.Println("pipeline:")
	for _, c := range []struct{ label, name string }{
		{"published", "thematicep_broker_published_total"},
		{"scanned", "thematicep_broker_scanned_total"},
		{"pruned", "thematicep_broker_pruned_total"},
		{"matched", "thematicep_broker_matched_total"},
		{"delivered", "thematicep_broker_delivered_total"},
		{"dropped", "thematicep_broker_dropped_total"},
	} {
		fmt.Printf("  %-10s %.0f\n", c.label, counter(c.name))
	}
	if byName["thematicep_broker_events_in_total"] != nil {
		var terms []string
		for _, b := range broker.Conservation(families) {
			terms = append(terms, fmt.Sprintf("%s: %.0f = %.0f", b.Identity, b.Up, b.Down))
		}
		fmt.Printf("accounting: %s\n", strings.Join(terms, "; "))
	}

	fmt.Println("latency (p50 / p95 / p99 / count):")
	for _, h := range []struct{ label, name string }{
		{"publish", "thematicep_broker_publish_seconds"},
		{"compile", "thematicep_broker_compile_seconds"},
		{"enumerate", "thematicep_broker_enumerate_seconds"},
		{"score", "thematicep_broker_score_seconds"},
		{"deliver", "thematicep_broker_deliver_seconds"},
		{"hop", "thematicep_cluster_hop_seconds"},
		{"detect", "thematicep_query_detect_seconds"},
	} {
		f := byName[h.name]
		if f == nil || f.Type != "histogram" {
			continue
		}
		count, p50, p95, p99 := quantiles(f)
		if count == 0 {
			fmt.Printf("  %-10s (no observations)\n", h.label)
			continue
		}
		fmt.Printf("  %-10s %s / %s / %s / %.0f\n", h.label,
			secs(p50), secs(p95), secs(p99), count)
	}

	// Batching: every publish is a batch (a serial publish is a batch of
	// one), so "batches" counts all admitted publish calls and the size
	// quantiles say how much of the stream arrives in multi-event batches;
	// the reuse lines say how much work the interners and row memos
	// amortize away.
	if batches := counter("thematicep_broker_batches_total"); batches > 0 {
		fmt.Println("batching (every publish; serial = size 1):")
		fmt.Printf("  %-14s %.0f\n", "batches", batches)
		if f := byName["thematicep_publish_batch_size"]; f != nil && f.Type == "histogram" {
			count, p50, p95, _ := quantiles(f)
			if count > 0 {
				fmt.Printf("  %-14s p50 %.0f / p95 %.0f\n", "batch size", p50, p95)
			}
		}
		ti := counter("thematicep_broker_batch_terms_interned_total")
		tr := counter("thematicep_broker_batch_terms_reused_total")
		rc := counter("thematicep_broker_batch_rows_computed_total")
		rr := counter("thematicep_broker_batch_rows_reused_total")
		pct := func(hit, miss float64) float64 {
			if hit+miss == 0 {
				return 0
			}
			return 100 * hit / (hit + miss)
		}
		fmt.Printf("  %-14s %.0f reused / %.0f interned (%.1f%% amortized)\n", "terms", tr, ti, pct(tr, ti))
		fmt.Printf("  %-14s %.0f reused / %.0f filled (%.1f%% amortized)\n", "sim rows", rr, rc, pct(rr, rc))
	}

	// Subscription-index occupancy and the candidates-per-event
	// distribution: the inverted index's pruning effectiveness at a glance.
	gauge := func(name string) (float64, bool) {
		f := byName[name]
		if f == nil || len(f.Samples) == 0 {
			return 0, false
		}
		return f.Samples[0].Value, true
	}
	if subs, ok := gauge("thematicep_subindex_subscriptions"); ok {
		fmt.Println("subindex:")
		fmt.Printf("  %-14s %.0f\n", "subscriptions", subs)
		for _, g := range []struct{ label, name string }{
			{"buckets", "thematicep_subindex_buckets"},
			{"terms", "thematicep_subindex_terms"},
			{"approx-only", "thematicep_subindex_approx_entries"},
			{"max bucket", "thematicep_subindex_max_bucket"},
			{"free slots", "thematicep_subindex_free_slots"},
		} {
			if v, ok := gauge(g.name); ok {
				fmt.Printf("  %-14s %.0f\n", g.label, v)
			}
		}
		if v, ok := gauge("thematicep_subindex_avg_bucket"); ok {
			fmt.Printf("  %-14s %.2f\n", "avg bucket", v)
		}
		if f := byName["thematicep_subindex_candidates_per_event"]; f != nil && f.Type == "histogram" {
			count, p50, p95, _ := quantiles(f)
			if count > 0 {
				fmt.Printf("  %-14s p50 %.0f / p95 %.0f over %.0f events", "candidates", p50, p95, count)
				if subs > 0 {
					fmt.Printf(" (p95 = %.1f%% of live subs)", 100*p95/subs)
				}
				fmt.Println()
			}
		}
	}

	// Cluster membership: one line for the ring's shape, one for churn.
	// Suspect or dead counts above zero during steady state mean the gossip
	// layer is mid-incident even if the pipeline numbers still look fine.
	if f := byName["thematicep_cluster_members"]; f != nil && len(f.Samples) > 0 {
		byState := map[string]float64{}
		total := 0.0
		for _, s := range f.Samples {
			byState[s.Labels["state"]] += s.Value
			total += s.Value
		}
		fmt.Println("membership:")
		fmt.Printf("  %-14s %.0f (%.0f alive / %.0f suspect / %.0f dead)\n",
			"members", total, byState["alive"], byState["suspect"], byState["dead"])
		fmt.Printf("  %-14s %.0f joins / %.0f leaves / %.0f suspicions\n", "churn",
			counter("thematicep_cluster_member_join_total"),
			counter("thematicep_cluster_member_leave_total"),
			counter("thematicep_cluster_member_suspect_total"))
	}

	// Subscription durability: WAL activity on the scraped member(s).
	if appends := counter("thematicep_wal_appends_total"); appends > 0 || counter("thematicep_wal_replayed_records") > 0 {
		fmt.Println("wal:")
		fmt.Printf("  %-14s %.0f appends / %.0f snapshots / %.0f fsyncs\n", "activity",
			appends, counter("thematicep_wal_snapshots_total"), counter("thematicep_wal_fsyncs_total"))
		fmt.Printf("  %-14s %.0f records", "replayed", counter("thematicep_wal_replayed_records"))
		if tb := counter("thematicep_wal_truncated_bytes"); tb > 0 {
			fmt.Printf(" (%.0f torn-tail bytes truncated)", tb)
		}
		fmt.Println()
	}

	// Process runtime health: a slow pipeline with a pinned heap or a
	// goroutine pileup is a different incident than a slow matcher.
	if v, ok := gauge("thematicep_runtime_goroutines"); ok {
		fmt.Println("runtime:")
		fmt.Printf("  %-14s %.0f\n", "goroutines", v)
		if h, ok := gauge("thematicep_runtime_heap_inuse_bytes"); ok {
			fmt.Printf("  %-14s %.1f MiB\n", "heap in-use", h/(1<<20))
		}
		if o, ok := gauge("thematicep_runtime_heap_objects"); ok {
			fmt.Printf("  %-14s %.0f\n", "heap objects", o)
		}
		fmt.Printf("  %-14s %.0f\n", "gc cycles", counter("thematicep_runtime_gc_total"))
		if f := byName["thematicep_runtime_gc_pause_seconds"]; f != nil && f.Type == "histogram" {
			if count, p50, p95, _ := quantiles(f); count > 0 {
				fmt.Printf("  %-14s p50 %s / p95 %s\n", "gc pause", secs(p50), secs(p95))
			}
		}
		if fds, ok := gauge("thematicep_runtime_open_fds"); ok {
			fmt.Printf("  %-14s %.0f\n", "open fds", fds)
		}
	}

	if f := byName["thematicep_query_detections_total"]; f != nil && len(f.Samples) > 0 {
		fed := byName["thematicep_query_events_total"]
		fedFor := func(query string) float64 {
			if fed == nil {
				return 0
			}
			for _, s := range fed.Samples {
				if s.Labels["query"] == query {
					return s.Value
				}
			}
			return 0
		}
		fmt.Println("queries (detections / events fed):")
		sorted := append([]telemetry.Sample(nil), f.Samples...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Labels["query"] < sorted[j].Labels["query"]
		})
		for _, s := range sorted {
			q := s.Labels["query"]
			fmt.Printf("  %-12s %.0f / %.0f\n", q, s.Value, fedFor(q))
		}
	}

	if f := byName["thematicep_semantics_cache_hits_total"]; f != nil {
		miss := byName["thematicep_semantics_cache_misses_total"]
		fmt.Println("caches (hits / misses):")
		missFor := func(cache string) float64 {
			if miss == nil {
				return 0
			}
			for _, s := range miss.Samples {
				if s.Labels["cache"] == cache {
					return s.Value
				}
			}
			return 0
		}
		sorted := append([]telemetry.Sample(nil), f.Samples...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Labels["cache"] < sorted[j].Labels["cache"]
		})
		for _, s := range sorted {
			fmt.Printf("  %-12s %.0f / %.0f\n", s.Labels["cache"], s.Value, missFor(s.Labels["cache"]))
		}
	}
}

// printSLO renders each SLO's red/yellow/green burn state from the
// thematicep_slo_* families of one node's scrape. The status gauge is a
// per-node judgment and is never merged across members (summing statuses
// is meaningless), which is why cluster mode calls this per member.
func printSLO(byName map[string]*telemetry.Family, pad string) {
	status := byName["thematicep_slo_status"]
	if status == nil || len(status.Samples) == 0 {
		return
	}
	labeled := func(name, slo string) float64 {
		f := byName[name]
		if f == nil {
			return 0
		}
		for _, s := range f.Samples {
			if s.Labels["slo"] == slo {
				return s.Value
			}
		}
		return 0
	}
	burn := func(slo, window string) float64 {
		f := byName["thematicep_slo_burn_rate"]
		if f == nil {
			return 0
		}
		for _, s := range f.Samples {
			if s.Labels["slo"] == slo && s.Labels["window"] == window {
				return s.Value
			}
		}
		return 0
	}
	if pad == "  " {
		fmt.Println("slo:")
	}
	sorted := append([]telemetry.Sample(nil), status.Samples...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Labels["slo"] < sorted[j].Labels["slo"]
	})
	for _, s := range sorted {
		name := s.Labels["slo"]
		light := map[float64]string{0: "GREEN", 1: "YELLOW", 2: "RED"}[s.Value]
		if light == "" {
			light = fmt.Sprintf("status=%g", s.Value)
		}
		good := labeled("thematicep_slo_window_good", name)
		bad := labeled("thematicep_slo_window_bad", name)
		fmt.Printf("%s%-10s %-6s burn %.2f short / %.2f long (objective %g, threshold %s, window %.0f good / %.0f bad)\n",
			pad, name, light, burn(name, "short"), burn(name, "long"),
			labeled("thematicep_slo_objective", name),
			secs(labeled("thematicep_slo_threshold_seconds", name)), good, bad)
	}
}

// quantiles returns a histogram family's observation count and its
// p50/p95/p99, every label set merged into one distribution.
func quantiles(f *telemetry.Family) (count, p50, p95, p99 float64) {
	s, _ := telemetry.FamilySnapshot(f)
	return float64(s.Count), s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)
}

func printTraces(body []byte) {
	var traces []telemetry.Trace
	if err := json.Unmarshal(body, &traces); err != nil {
		fmt.Fprintf(os.Stderr, "traces: bad JSON: %v\n", err)
		return
	}
	if len(traces) == 0 {
		fmt.Println("traces: none recorded (is -trace-sample enabled on the daemon?)")
		return
	}
	fmt.Printf("traces (%d recent, newest first):\n", len(traces))
	for i, tr := range traces {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(traces)-i)
			break
		}
		fmt.Printf("  %s total=%s\n", tr.EventID, tr.Total.Round(time.Microsecond))
		for _, sp := range tr.Spans {
			fmt.Printf("    %-20s +%-12s %s\n", sp.Stage,
				sp.Offset.Round(time.Microsecond), sp.Duration.Round(time.Microsecond))
		}
	}
}
