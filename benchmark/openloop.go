package main

import "time"

// openLoop calls send once per tick of a fixed schedule: tick k is due at
// start + k*interval, for every tick due before end. It never skips a tick
// and never re-plans the schedule: when send blocks past later ticks'
// due times, those ticks go out back to back as soon as it returns, each
// still stamped with the time it was due. Callers measure latency from that
// intended time, so a stall in the system under test shows up in every send
// scheduled during it (no coordinated omission). The returned samples are
// how late each send started (at = intended, dur = actual - intended).
func openLoop(start time.Time, interval time.Duration, end time.Time, send func(k int, intended time.Time)) []sample {
	var late []sample
	for k := 0; ; k++ {
		intended := start.Add(time.Duration(k) * interval)
		if !intended.Before(end) {
			return late
		}
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		late = append(late, sample{at: int64(intended.Sub(start)), dur: int64(max(time.Since(intended), 0))})
		send(k, intended)
	}
}
