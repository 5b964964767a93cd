package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"thematicep/internal/broker"
	"thematicep/internal/matcher"
	"thematicep/internal/workload"
)

// scaleTiers are the subscription population sizes of the scale
// experiment (E8). -full adds the million-subscription tier.
func (e *env0) scaleTiers() []int {
	tiers := []int{1_000, 10_000, 100_000}
	if e.full {
		tiers = append(tiers, 1_000_000)
	}
	return tiers
}

// scaleBatchSize is the PublishBatch granularity of the batched pass —
// the size a transport-fed ingest pipeline would realistically hand the
// broker (well under the server's publishb cap).
const scaleBatchSize = 256

// scaleRow is one tier's measurements: the publish pipeline at batch
// size 1 (the serial Publish loop) and at scaleBatchSize over the
// identical workload, each the median of scalePasses timed passes, with
// the ratio of the medians alongside.
type scaleRow struct {
	Subs          int     `json:"subs"`
	Events        int     `json:"events"`
	CandPerEvent  float64 `json:"candidates_per_event"`
	PrunedPercent float64 `json:"pruned_percent"`
	Matched       uint64  `json:"matched"`
	EventsPerSec  float64 `json:"events_per_sec"`
	WallSeconds   float64 `json:"wall_seconds"`

	EventsPerSecBatched float64 `json:"events_per_sec_batched"`
	WallSecondsBatched  float64 `json:"wall_seconds_batched"`
	BatchSpeedup        float64 `json:"batch_speedup"`
	BatchRowsReused     uint64  `json:"batch_rows_reused"`
	BatchRowsComputed   uint64  `json:"batch_rows_computed"`
	BatchTermsReused    uint64  `json:"batch_terms_reused"`
	BytesPerSub         float64 `json:"bytes_per_sub"`
}

// scalePasses is how many timed passes of each shape E8 runs per tier, in
// alternation after one untimed warm pass; each shape reports its median.
// One pass is 200 events (35–540 ms), too short for a single timing of
// each shape to order them reliably on a shared host.
const scalePasses = 5

// scaleBroker registers every scale subscription on a fresh broker and
// returns it with the live heap registration added per subscription: the
// broker's registrations and everything the matcher and the space (its
// caches reset first) interned for them. Queue size is minimal with
// drop-oldest, so a pass measures enumeration + scoring, not delivery
// consumption.
func (e *env0) scaleBroker(w *workload.ScaleWorkload, pruning bool, parallelism int) (*broker.Broker, float64, error) {
	e.space.ResetCaches()
	m := matcher.New(e.space)
	b := broker.New(
		m,
		broker.WithPruning(pruning),
		broker.WithReplayBuffer(0),
		broker.WithQueueSize(1),
		broker.WithMatchParallelism(parallelism),
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range w.Subs {
		if _, err := b.Subscribe(s); err != nil {
			b.Close()
			return nil, 0, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return b, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(w.Subs)), nil
}

// scalePass publishes every scale event through b — serially or through
// PublishBatch in scaleBatchSize batches, the same pipeline either way —
// and returns the pass's counters (the broker's totals less those before
// it) and the wall time of the publish loop.
func scalePass(b *broker.Broker, w *workload.ScaleWorkload, batched bool) (brokerRun, error) {
	st0 := b.Stats()
	start := time.Now()
	if batched {
		for lo := 0; lo < len(w.Events); lo += scaleBatchSize {
			hi := min(lo+scaleBatchSize, len(w.Events))
			if err := b.PublishBatch(w.Events[lo:hi]); err != nil {
				return brokerRun{}, err
			}
		}
	} else {
		for _, ev := range w.Events {
			if err := b.Publish(ev); err != nil {
				return brokerRun{}, err
			}
		}
	}
	elapsed := time.Since(start)
	st := b.Stats()
	return brokerRun{Elapsed: elapsed, Stats: broker.Stats{
		Scanned:           st.Scanned - st0.Scanned,
		Pruned:            st.Pruned - st0.Pruned,
		Matched:           st.Matched - st0.Matched,
		BatchTermsReused:  st.BatchTermsReused - st0.BatchTermsReused,
		BatchRowsComputed: st.BatchRowsComputed - st0.BatchRowsComputed,
		BatchRowsReused:   st.BatchRowsReused - st0.BatchRowsReused,
	}}, nil
}

// runScale is E8: Internet-scale matching, measuring the publish pipeline
// at batch size 1 and at scaleBatchSize at every tier. Each tier
// generates a fresh zipf-skewed population, registers it once, and runs
// the identical event stream both ways: one untimed warm pass, then
// scalePasses timed passes of each shape in alternation. It reports each
// shape's median rate, what batching amortizes (the ratio of the medians)
// and candidates-per-event. Equivalence is enforced on every pass — each
// must match and scan exactly what the warm pass did — and the smallest
// tier is additionally cross-checked against a full scan.
func runScale(e *env0) error {
	tiers := e.scaleTiers()
	fmt.Println("== E8: Internet-scale matching (publish pipeline: batched vs batch-of-one serial loop) ==")
	fmt.Printf("%-10s %-8s %-16s %-9s %-10s %-11s %-11s %-8s %-14s %s\n",
		"subs", "events", "cand/event", "pruned%", "matched", "serial/s", "batched/s", "speedup", "wall(batched)", "B/sub")

	rows := make([]scaleRow, 0, len(tiers))
	for i, n := range tiers {
		cfg := workload.DefaultScaleConfig(n)
		cfg.Seed = e.seed
		w := workload.GenerateScale(cfg)

		b, perSub, err := e.scaleBroker(w, true, e.parallel)
		if err != nil {
			return err
		}
		run, bat, err := scaleTimed(b, w)
		b.Close()
		if err != nil {
			return fmt.Errorf("scale tier %d: %w", n, err)
		}
		if i == 0 {
			// The full scan must find exactly the matches the pruned index
			// admits.
			fb, _, err := e.scaleBroker(w, false, e.parallel)
			if err != nil {
				return err
			}
			full, err := scalePass(fb, w, false)
			fb.Close()
			if err != nil {
				return err
			}
			if full.Stats.Matched != run.Stats.Matched {
				return fmt.Errorf("scale tier %d: pruning changed matches: %d full scan vs %d pruned",
					n, full.Stats.Matched, run.Stats.Matched)
			}
		}

		nev := float64(len(w.Events))
		pairs := float64(run.Stats.Scanned + run.Stats.Pruned)
		row := scaleRow{
			Subs:          n,
			Events:        len(w.Events),
			CandPerEvent:  float64(run.Stats.Scanned) / nev,
			PrunedPercent: 100 * float64(run.Stats.Pruned) / pairs,
			Matched:       run.Stats.Matched,
			EventsPerSec:  nev / run.Elapsed.Seconds(),
			WallSeconds:   run.Elapsed.Seconds(),

			EventsPerSecBatched: nev / bat.Elapsed.Seconds(),
			WallSecondsBatched:  bat.Elapsed.Seconds(),
			BatchRowsReused:     bat.Stats.BatchRowsReused,
			BatchRowsComputed:   bat.Stats.BatchRowsComputed,
			BatchTermsReused:    bat.Stats.BatchTermsReused,
			BytesPerSub:         perSub,
		}
		row.BatchSpeedup = row.EventsPerSecBatched / row.EventsPerSec
		rows = append(rows, row)
		fmt.Printf("%-10d %-8d %-16.1f %-9.2f %-10d %-11.0f %-11.0f %-8.2f %-14v %.0f\n",
			row.Subs, row.Events, row.CandPerEvent, row.PrunedPercent, row.Matched,
			row.EventsPerSec, row.EventsPerSecBatched, row.BatchSpeedup,
			bat.Elapsed.Round(msRound), row.BytesPerSub)
	}
	fmt.Println()

	if e.benchjson != "" {
		doc := map[string]any{
			"experiment": "scale",
			"seed":       e.seed,
			"parallel":   e.parallel,
			"tiers":      rows,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(e.benchjson, append(data, '\n'), 0o644)
	}
	return nil
}

// scaleTimed runs one untimed warm serial pass over b, then scalePasses
// timed passes of each shape in alternation. It returns the warm pass's
// counters with the serial median time, and the first batched pass's
// counters with the batched median time. Every pass must match and scan
// exactly what the warm pass did: batching (or a warm broker) must not
// change what matches (delivery-set bit-identity is enforced by the broker
// tests; the counters re-check it at scale).
func scaleTimed(b *broker.Broker, w *workload.ScaleWorkload) (serial, batched brokerRun, err error) {
	if serial, err = scalePass(b, w, false); err != nil {
		return serial, batched, err
	}
	var times [2][]time.Duration // serial, batched
	for k := 0; k < 2*scalePasses; k++ {
		shape := k % 2
		pass, err := scalePass(b, w, shape == 1)
		if err != nil {
			return serial, batched, err
		}
		if pass.Stats.Matched != serial.Stats.Matched || pass.Stats.Scanned != serial.Stats.Scanned {
			return serial, batched, fmt.Errorf("pass %d (batched %v) changed outcomes: %d/%d vs %d/%d warm serial (matched/scanned)",
				k, shape == 1, pass.Stats.Matched, pass.Stats.Scanned, serial.Stats.Matched, serial.Stats.Scanned)
		}
		if shape == 1 && len(times[1]) == 0 {
			batched = pass
		}
		times[shape] = append(times[shape], pass.Elapsed)
	}
	serial.Elapsed, batched.Elapsed = medianDuration(times[0]), medianDuration(times[1])
	return serial, batched, nil
}

// medianDuration is the median of ds, which it sorts.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}
