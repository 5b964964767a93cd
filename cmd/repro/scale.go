package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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
// identical workload, with the batched/serial ratio alongside.
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

// scalePass subscribes every scale subscription, publishes every scale
// event through the broker — serially or through PublishBatch in
// scaleBatchSize batches, the same pipeline either way — and returns
// counters + wall time of the publish loop, and the live heap registration
// added per subscription: the broker's registrations and everything the
// matcher and the space (its caches reset first) interned for them. Queue
// size is minimal with drop-oldest, so the pass measures enumeration +
// scoring, not delivery consumption.
func (e *env0) scalePass(w *workload.ScaleWorkload, pruning, batched bool, parallelism int) (brokerRun, error) {
	e.space.ResetCaches()
	m := matcher.New(e.space)
	b := broker.New(
		m,
		broker.WithPruning(pruning),
		broker.WithReplayBuffer(0),
		broker.WithQueueSize(1),
		broker.WithMatchParallelism(parallelism),
	)
	defer b.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range w.Subs {
		if _, err := b.Subscribe(s); err != nil {
			return brokerRun{}, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSub := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(w.Subs))
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
	return brokerRun{Stats: b.Stats(), Elapsed: time.Since(start), BytesPerSub: perSub}, nil
}

// runScale is E8: Internet-scale matching, measuring the publish pipeline
// at batch size 1 and at scaleBatchSize at every tier. Each tier
// generates a fresh zipf-skewed population, runs the identical event
// stream both ways, and reports what batching amortizes (the
// batched/serial ratio) alongside candidates-per-event. Equivalence is enforced per
// tier — the batched pass must match the serial pass pair-for-pair — and
// the smallest tier is additionally cross-checked against a full scan.
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

		run, err := e.scalePass(w, true, false, e.parallel)
		if err != nil {
			return err
		}
		bat, err := e.scalePass(w, true, true, e.parallel)
		if err != nil {
			return err
		}
		// Equivalence gate at every tier: batching must not change what
		// matches (delivery-set bit-identity is enforced by the broker
		// tests; the counters re-check it at scale).
		if bat.Stats.Matched != run.Stats.Matched || bat.Stats.Scanned != run.Stats.Scanned {
			return fmt.Errorf("scale tier %d: batching changed outcomes: %d/%d batched vs %d/%d serial (matched/scanned)",
				n, bat.Stats.Matched, bat.Stats.Scanned, run.Stats.Matched, run.Stats.Scanned)
		}
		if i == 0 {
			// The full scan must find exactly the matches the pruned index
			// admits.
			full, err := e.scalePass(w, false, false, e.parallel)
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
			BytesPerSub:         run.BytesPerSub,
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
