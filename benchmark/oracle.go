package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"

	"thematicep/internal/index"
	"thematicep/internal/matcher"
	"thematicep/internal/semantics"
)

// loadSpace opens the index cache the daemons load, so the oracle and the
// probes score in exactly the space the daemon scores in.
func loadSpace(indexPath string) (*semantics.Space, error) {
	f, err := os.Open(indexPath)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer f.Close()
	ix, err := index.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("oracle: load index %s: %w", indexPath, err)
	}
	return semantics.NewSpace(ix), nil
}

// expectedSets is the reference: for every event template, the ascending
// population indices a correct broker delivers it to, by full scan over the
// scalar prepared path (no index, no batch scorer) with the broker's
// delivery rule score >= threshold && score > 0.
func expectedSets(space *semantics.Space, in inputs, threshold float64) [][]int32 {
	m := matcher.New(space)
	subs := make([]*matcher.PreparedSubscription, len(in.Subs))
	for i, s := range in.Subs {
		subs[i] = m.PrepareSubscription(s)
	}
	out := make([][]int32, len(in.Events))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := w; t < len(in.Events); t += workers {
				pe := m.PrepareEvent(in.Events[t])
				for i, ps := range subs {
					if sc := m.ScorePrepared(ps, pe); sc >= threshold && sc > 0 {
						out[t] = append(out[t], int32(i))
					}
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// mismatch counts how one event's received deliveries differ from its
// expected set.
type mismatch struct {
	Missing    int // expected, never received
	Duplicate  int // received more than once (each extra copy counts)
	Unexpected int // received by a subscription outside the expected set
}

func (m mismatch) total() int { return m.Missing + m.Duplicate + m.Unexpected }

func (m *mismatch) add(o mismatch) {
	m.Missing += o.Missing
	m.Duplicate += o.Duplicate
	m.Unexpected += o.Unexpected
}

// compareSets diffs the received subscription indices (any order, with
// repeats) against the ascending expected set. got is sorted in place.
func compareSets(expected, got []int32) mismatch {
	slices.Sort(got)
	var m mismatch
	i := 0
	for j := 0; j < len(got); j++ {
		if j > 0 && got[j] == got[j-1] {
			m.Duplicate++
			continue
		}
		for i < len(expected) && expected[i] < got[j] {
			m.Missing++
			i++
		}
		if i < len(expected) && expected[i] == got[j] {
			i++
		} else {
			m.Unexpected++
		}
	}
	m.Missing += len(expected) - i
	return m
}
