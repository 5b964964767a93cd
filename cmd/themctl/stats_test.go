package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
	"thematicep/internal/telemetry"
)

// fakeMember serves a minimal /metrics exposition and, when given a
// directory, /debug/peers — enough for scrapeCluster to treat it as a live
// federation member.
func fakeMember(t *testing.T, directory func() []peerInfo) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# TYPE thematicep_broker_published_total counter\nthematicep_broker_published_total 5\n")
	})
	if directory != nil {
		mux.HandleFunc("/debug/peers", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(directory())
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// deadAddr returns a URL nothing listens on: a server is started to reserve
// a port and immediately closed.
func deadAddr(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	return url
}

// A cluster scrape with unreachable members must still succeed on the
// reachable ones, returning the holes as report lines rather than failing —
// that is the whole point of `themctl stats -cluster` during an incident.
func TestScrapeClusterPartial(t *testing.T) {
	var dir []peerInfo
	seedB := fakeMember(t, nil)
	seedA := fakeMember(t, func() []peerInfo { return dir })
	dead := deadAddr(t)
	dir = []peerInfo{
		{Node: "node-a", Metrics: seedA.URL, Self: true, State: "alive"},
		{Node: "node-b", Metrics: seedB.URL, State: "alive"},
		{Node: "node-c", Metrics: dead, State: "dead"},
		{Node: "node-d", Metrics: "", State: "alive"},
	}

	scrapes, down, err := scrapeCluster(seedA.URL, false, 2*time.Second)
	if err != nil {
		t.Fatalf("scrapeCluster: %v", err)
	}
	if len(scrapes) != 2 {
		t.Fatalf("got %d scrapes, want 2 (a and b)", len(scrapes))
	}
	got := map[string]bool{}
	for _, s := range scrapes {
		got[s.node] = true
	}
	if !got["node-a"] || !got["node-b"] {
		t.Fatalf("scraped %v, want node-a and node-b", got)
	}
	if len(down) != 2 {
		t.Fatalf("got %d down lines %q, want 2", len(down), down)
	}
	joined := strings.Join(down, "\n")
	if !strings.Contains(joined, "node-c") || !strings.Contains(joined, "membership says dead") {
		t.Errorf("down lines should name node-c with its membership state, got %q", down)
	}
	if !strings.Contains(joined, "node-d") || !strings.Contains(joined, "no metrics address") {
		t.Errorf("down lines should name node-d as address-less, got %q", down)
	}
}

// When no member at all is reachable the scrape must fail loudly instead of
// printing an empty report.
func TestScrapeClusterAllDown(t *testing.T) {
	dead := deadAddr(t)
	dir := []peerInfo{
		{Node: "node-a", Metrics: dead, State: "suspect"},
		{Node: "node-b", Metrics: dead, State: "dead"},
	}
	seed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/debug/peers" {
			json.NewEncoder(w).Encode(dir)
			return
		}
		http.NotFound(w, r)
	}))
	defer seed.Close()

	scrapes, down, err := scrapeCluster(seed.URL, false, 2*time.Second)
	if err == nil {
		t.Fatalf("want error when every member is unreachable, got %d scrapes", len(scrapes))
	}
	if len(down) != 2 {
		t.Fatalf("got %d down lines %q, want 2", len(down), down)
	}
}

// A daemon without /debug/peers degrades to scraping base itself.
func TestScrapeClusterSingleNodeFallback(t *testing.T) {
	solo := fakeMember(t, nil)
	scrapes, down, err := scrapeCluster(solo.URL, false, 2*time.Second)
	if err != nil {
		t.Fatalf("scrapeCluster: %v", err)
	}
	if len(scrapes) != 1 || len(down) != 0 {
		t.Fatalf("got %d scrapes / %d down, want 1 / 0", len(scrapes), len(down))
	}
}

// -lint checks the broker's accounting identities on a live exposition: a
// quiescent broker's scrape passes, and the same scrape with one term off by
// one fails, whether the term lags its source (a remainder that never
// closes) or runs ahead of it.
func TestStatsLintAccounting(t *testing.T) {
	b := broker.New(broker.MatchFunc(func(s *event.Subscription, e *event.Event) float64 {
		if event.ExactMatch(s, e) {
			return 1
		}
		return 0
	}))
	defer b.Close()
	sub := &event.Subscription{Predicates: []event.Predicate{{Attr: "type", Value: "parking event"}}}
	if _, err := b.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"parking event", "fire alarm"} {
		if err := b.Publish(&event.Event{Tuples: []event.Tuple{{Attr: "type", Value: v}}}); err != nil {
			t.Fatal(err)
		}
	}
	b.Publish(&event.Event{}) // refused: no tuples
	var sb strings.Builder
	b.WriteMetrics(telemetry.NewExpo(&sb))
	scrape := sb.String()

	offByOne := func(family string) string {
		re := regexp.MustCompile(`(?m)^` + family + ` (\d+)$`)
		m := re.FindStringSubmatch(scrape)
		if m == nil {
			t.Fatalf("no %s in the scrape", family)
		}
		n, _ := strconv.Atoi(m[1])
		return re.ReplaceAllString(scrape, fmt.Sprintf("%s %d", family, n+1))
	}
	for _, tc := range []struct {
		name, exposition, want string
	}{
		{"balanced", scrape, ""},
		{"downstream term lost", offByOne("thematicep_broker_events_in_total"), "unaccounted on a quiescent broker"},
		{"downstream term ahead", offByOne("thematicep_broker_delivered_total"), "ran ahead of its source"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, tc.exposition)
			}))
			defer srv.Close()
			err := runStats([]string{"-metrics", srv.URL, "-lint"})
			if tc.want == "" && err != nil {
				t.Fatalf("balanced scrape fails -lint: %v", err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("-lint = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// publishHistogram is one node's publish latency exposition: cumulative
// counts at le = 1 ms, 10 ms, 100 ms and +Inf.
func publishHistogram(c1, c10, c100 int, sum float64) string {
	return fmt.Sprintf(`# TYPE thematicep_broker_publish_seconds histogram
thematicep_broker_publish_seconds_bucket{le="0.001"} %d
thematicep_broker_publish_seconds_bucket{le="0.01"} %d
thematicep_broker_publish_seconds_bucket{le="0.1"} %d
thematicep_broker_publish_seconds_bucket{le="+Inf"} %d
thematicep_broker_publish_seconds_sum %g
thematicep_broker_publish_seconds_count %d
`, c1, c10, c100, c100, sum, c100)
}

// stdout runs fn and returns what it printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = saved
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatal(err)
	}
	return printed
}

// The quantiles `stats -cluster` prints are those of the bucket-wise merge
// (telemetry.FamilySnapshot, then HistogramSnapshot.Quantile), pinned here
// for a fixed two-node exposition: node A observed two publishes under
// 1 ms and two in (1, 10] ms, node B two in (1, 10] ms and two in
// (10, 100] ms.
func TestStatsClusterQuantiles(t *testing.T) {
	var dir []peerInfo
	member := func(body string, withDir bool) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, body) })
		if withDir {
			mux.HandleFunc("/debug/peers", func(w http.ResponseWriter, r *http.Request) { json.NewEncoder(w).Encode(dir) })
		}
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	a := member(publishHistogram(2, 4, 4, 0.01), true)
	b := member(publishHistogram(0, 2, 4, 0.1), false)
	dir = []peerInfo{
		{Node: "node-a", Metrics: a.URL, Self: true, State: "alive"},
		{Node: "node-b", Metrics: b.URL, State: "alive"},
	}

	out := stdout(t, func() error { return runStats([]string{"-metrics", a.URL, "-cluster"}) })
	for _, want := range []string{
		// Merged: 8 observations, 2 / 4 / 2 per bucket.
		"  publish    5.5ms / 82ms / 96.4ms / 8\n",
		"  node-a                   1ms / 9.1ms / 9.82ms / 4\n",
		"  node-b                   10ms / 91ms / 98.2ms / 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats -cluster output lacks %q:\n%s", want, out)
		}
	}
}
