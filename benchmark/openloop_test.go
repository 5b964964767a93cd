package main

import (
	"testing"
	"time"
)

// A sink that stalls must not slow the schedule down: every send due
// during the stall still goes out, and its latency — measured from when it
// was due — carries the part of the stall it sat through. A generator that
// re-planned from "now" would report those sends as fast (coordinated
// omission).
func TestOpenLoopStallShowsInLatency(t *testing.T) {
	const (
		interval  = 10 * time.Millisecond
		ticks     = 60
		stallTick = 20
		stall     = 200 * time.Millisecond
	)
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(ticks * interval)
	latency := make([]time.Duration, 0, ticks)
	late := openLoop(start, interval, end, func(k int, intended time.Time) {
		if k == stallTick {
			time.Sleep(stall)
		}
		latency = append(latency, time.Since(intended))
	})

	if len(latency) != ticks || len(late) != ticks {
		t.Fatalf("%d sends, %d lateness samples; want %d of each (no tick skipped)", len(latency), len(late), ticks)
	}
	// Tick stallTick+j was due j intervals into the stall, so it waited out
	// the rest of it.
	for j := 0; j < int(stall/interval); j += 5 {
		want := stall - time.Duration(j)*interval
		if got := latency[stallTick+j]; got < want-interval {
			t.Errorf("send due %v into the stall: latency %v, want at least %v", time.Duration(j)*interval, got, want-interval)
		}
	}
	maxLate := overall(late, quantileFn(1))
	if want := ms(stall - 2*interval); maxLate < want {
		t.Errorf("harness.send_late max = %.1f ms, want at least %.1f ms", maxLate, want)
	}
	// Before the stall the generator keeps to its schedule.
	for k := 0; k < stallTick; k++ {
		if late[k].dur > int64(stall/4) {
			t.Errorf("tick %d sent %v late with nothing stalling", k, time.Duration(late[k].dur))
		}
	}
}
