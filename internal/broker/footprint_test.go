package broker

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"thematicep/internal/event"
	"thematicep/internal/matcher"
	"thematicep/internal/workload"
)

// TestSubscriptionFootprint holds a prepared subscription of up to four
// predicates to one 112-byte object, and bounds the broker-owned live heap
// of one registration: the registry entry, the pruning index's postings
// and columns, the Subscriber and the prepared subscription, but not the
// decoded event.Subscription (the caller's) nor what the matcher interns
// once per distinct row, which a throwaway broker warms first. Each
// subscription goes through a JSON round trip, as a subscribe frame does,
// and live heap is read after two collections. The shapes are the
// benchmark's: fanout (10k zipf subscriptions), churn (4k) and match_heavy
// (8k over a 256-value vocabulary, 20% approx-only), each with pruning on
// and off.
//
// Bytes per registration measured when the gate was set, pruning on / off:
// fanout 298 / 263, churn 331 / 276, match_heavy 353 / 272. Each case may
// drift 10% above its measured value, since map buckets and slice growth
// move in steps; over the three pruning shapes together a registration
// measured 324 bytes and stays within 356 (+10%).
func TestSubscriptionFootprint(t *testing.T) {
	if size := unsafe.Sizeof(matcher.PreparedSubscription{}); size > 112 {
		t.Errorf("PreparedSubscription is %d bytes, want at most 112", size)
	}
	if raceEnabled {
		t.Skip("race mode: the race detector's bookkeeping inflates the heap")
	}
	const pruningBudget = 356
	m := matcher.New(evalSpace(t))
	var pruningBytes, pruningSubs int64
	for _, c := range []struct {
		name     string
		n        int
		tune     func(*workload.ScaleConfig)
		measured [2]int64 // B per registration, pruning on and off
	}{
		{"fanout", 10000, nil, [2]int64{298, 263}},
		{"churn", 4000, nil, [2]int64{331, 276}},
		{"match_heavy", 8000, func(c *workload.ScaleConfig) { c.ValuesPerAttr = 256; c.ApproxOnlyFraction = 0.2 }, [2]int64{353, 272}},
	} {
		cfg := workload.DefaultScaleConfig(c.n + 512)
		cfg.Events = 1
		if c.tune != nil {
			c.tune(&cfg)
		}
		subs := make([]*event.Subscription, c.n)
		for i, s := range workload.GenerateScale(cfg).Subs[:c.n] {
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = new(event.Subscription)
			if err := json.Unmarshal(raw, subs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for k, pruning := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/pruning=%v", c.name, pruning), func(t *testing.T) {
				register := func() *Broker {
					b := New(m, WithThreshold(0.2), WithPruning(pruning))
					for _, s := range subs {
						if _, err := b.Subscribe(s); err != nil {
							t.Fatal(err)
						}
					}
					return b
				}
				register().Close()
				var before, after runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				b := register()
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				total := int64(after.HeapAlloc) - int64(before.HeapAlloc)
				runtime.KeepAlive(subs)
				if got := b.Stats().Subscribers; got != c.n {
					t.Fatalf("%d subscribers registered, want %d", got, c.n)
				}
				b.Close()
				per, want := total/int64(c.n), c.measured[k]
				t.Logf("%d subscriptions: %d B of broker heap each (measured %d when the gate was set)", c.n, per, want)
				if budget := want + want/10; per > budget {
					t.Errorf("%d B of broker heap per subscription, want at most %d (%d measured, +10%%)", per, budget, want)
				}
				if pruning {
					pruningBytes += total
					pruningSubs += int64(c.n)
				}
			})
		}
	}
	if pruningSubs > 0 {
		per := pruningBytes / pruningSubs
		t.Logf("pruning on, all shapes: %d B of broker heap per subscription", per)
		if per > pruningBudget {
			t.Errorf("pruning on, all shapes: %d B of broker heap per subscription, want at most %d", per, pruningBudget)
		}
	}
}
