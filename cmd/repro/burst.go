package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/event"
	"thematicep/internal/query"
	"thematicep/internal/telemetry"
	"thematicep/internal/workload"
)

// runBurst drives the continuous-query engine over a generated bursty
// workload (DESIGN.md §12): a Poisson background stream with
// theme-correlated rate spikes is published through an in-process broker
// whose clock — shared with the engine — is advanced along the timeline,
// so window semantics run in simulated time while the pipeline itself
// runs at full speed. A count query thresholded between the background
// and burst window expectations must detect every burst; the report
// grades its detections (precision, recall, detection delay in simulated
// time) and measures wall-clock event-to-detection latency (publish to
// detection taken, p50/p99). Everything but the wall-clock figures is a
// function of the seed.
func runBurst(e *env0) error {
	cfg := workload.DefaultBurstConfig()
	cfg.Seed = e.seed
	if e.full {
		cfg.Duration = 5 * time.Minute
		cfg.Bursts = 10
	}
	tl, err := workload.GenerateBurst(cfg)
	if err != nil {
		return err
	}

	const (
		window      = 500 * time.Millisecond
		minExpected = 5
	)
	simStart := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := telemetry.NewManual(simStart)
	exact := broker.MatchFunc(func(s *event.Subscription, ev *event.Event) float64 {
		if event.ExactMatch(s, ev) {
			return 1
		}
		return 0
	})
	b := broker.New(exact, broker.WithClock(clk), broker.WithReplayBuffer(0))
	defer b.Close()
	eng := query.New(b, query.WithClock(clk), query.WithFlushInterval(-1))
	defer eng.Close()

	q, err := eng.Register(&broker.QuerySpec{
		Name: "burst",
		Kind: string(query.KindCount),
		Subscription: &event.Subscription{
			Theme:      []string{cfg.Theme},
			Predicates: []event.Predicate{{Attr: "type", Value: cfg.BurstType}},
		},
		Window:      window,
		MinExpected: minExpected,
	})
	if err != nil {
		return err
	}

	// The query observes its feed inside Publish, so every detection an
	// event fires is queued when its Publish returns, stamped with the
	// simulated clock of that event. Detection latency in wall time runs
	// from the newest constituent's publish to the Take that hands the
	// detection out.
	wallPub := make(map[string]time.Time)
	var simOffsets, wallLat []time.Duration
	var dets []broker.QueryDetection
	collect := func() {
		now := time.Now()
		dets, _ = q.Take(dets[:0])
		for _, d := range dets {
			simOffsets = append(simOffsets, d.At.Sub(simStart))
			var newest time.Time
			for _, ev := range d.Events {
				if at, ok := wallPub[ev.ID]; ok && at.After(newest) {
					newest = at
				}
			}
			if !newest.IsZero() {
				wallLat = append(wallLat, now.Sub(newest))
			}
		}
	}

	wallStart := time.Now()
	for _, te := range tl.Events {
		clk.Advance(te.At - clk.Now().Sub(simStart))
		wallPub[te.Event.ID] = time.Now()
		if err := b.Publish(te.Event); err != nil {
			return err
		}
		collect()
	}
	// Close out the final window.
	clk.Advance(2 * window)
	eng.FlushExpired()
	wallElapsed := time.Since(wallStart)
	collect()

	sc := tl.Score(simOffsets, window+time.Second)
	p50, p99 := quantileDur(wallLat, 0.50), quantileDur(wallLat, 0.99)
	simHist := eng.DetectLatency()

	fmt.Println("== E8: burst detection over the continuous-query engine (DESIGN.md §12) ==")
	fmt.Printf("workload: %d events over %v (background %.1f ev/s, %d bursts of %v at %.0f ev/s)\n",
		len(tl.Events), cfg.Duration, cfg.BackgroundRate, cfg.Bursts, cfg.BurstLen, cfg.BurstRate)
	fmt.Printf("query: count(type=%s) over %v window, threshold %d expected events\n",
		cfg.BurstType, window, minExpected)
	fmt.Printf("detections: %d (TP %d, FP %d, FN %d) -> precision %.2f, recall %.2f\n",
		len(simOffsets), sc.TruePositives, sc.FalsePositives, sc.FalseNegatives,
		sc.Precision, sc.Recall)
	fmt.Printf("detection delay (simulated, from burst start): mean %v, max %v\n",
		sc.MeanDelay.Round(msRound), sc.MaxDelay.Round(msRound))
	fmt.Printf("event-to-detection latency (wall): p50 %v, p99 %v over %d detections\n",
		p50, p99, len(wallLat))
	fmt.Printf("pipeline: %d events in %v wall (%.0f ev/s), sim p99 %v\n\n",
		len(tl.Events), wallElapsed.Round(msRound),
		float64(len(tl.Events))/wallElapsed.Seconds(),
		time.Duration(simHist.Quantile(0.99)*float64(time.Second)).Round(msRound))

	if e.benchjson != "" {
		doc := map[string]any{
			"experiment":           "burst",
			"full":                 e.full,
			"seed":                 e.seed,
			"events":               len(tl.Events),
			"bursts":               cfg.Bursts,
			"detections":           len(simOffsets),
			"true_positives":       sc.TruePositives,
			"false_positives":      sc.FalsePositives,
			"false_negatives":      sc.FalseNegatives,
			"precision":            sc.Precision,
			"recall":               sc.Recall,
			"mean_delay_seconds":   sc.MeanDelay.Seconds(),
			"max_delay_seconds":    sc.MaxDelay.Seconds(),
			"sim_p99_seconds":      simHist.Quantile(0.99),
			"wall_p50_seconds":     p50.Seconds(),
			"wall_p99_seconds":     p99.Seconds(),
			"pipeline_events_sec":  float64(len(tl.Events)) / wallElapsed.Seconds(),
			"wall_elapsed_seconds": wallElapsed.Seconds(),
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(e.benchjson, append(data, '\n'), 0o644)
	}
	return nil
}

// quantileDur returns the q-quantile of the samples (nearest rank), or 0
// when there are none.
func quantileDur(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}
