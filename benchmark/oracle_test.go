package main

import (
	"testing"
	"time"
)

func TestCompareSets(t *testing.T) {
	cases := []struct {
		name          string
		expected, got []int32
		want          mismatch
	}{
		{"equal, any order", []int32{1, 4, 9}, []int32{9, 1, 4}, mismatch{}},
		{"both empty", nil, nil, mismatch{}},
		{"missing", []int32{1, 4, 9}, []int32{9, 1}, mismatch{Missing: 1}},
		{"all missing", []int32{1, 4}, nil, mismatch{Missing: 2}},
		{"duplicate", []int32{1, 4, 9}, []int32{1, 4, 4, 9, 4}, mismatch{Duplicate: 2}},
		{"unexpected", []int32{1, 4, 9}, []int32{1, 4, 7, 9}, mismatch{Unexpected: 1}},
		{"unexpected beyond the set", []int32{1}, []int32{1, 12}, mismatch{Unexpected: 1}},
		{"nobody was to receive it", nil, []int32{3}, mismatch{Unexpected: 1}},
		{"all three", []int32{1, 4, 9}, []int32{4, 4, 7}, mismatch{Missing: 2, Duplicate: 1, Unexpected: 1}},
	}
	for _, c := range cases {
		if got := compareSets(c.expected, c.got); got != c.want {
			t.Errorf("%s: compareSets(%v, %v) = %+v, want %+v", c.name, c.expected, c.got, got, c.want)
		}
	}
}

// A lost delivery must fail the phase it was lost in and give its window
// token back, so the phases after it are not blamed too.
func TestRecorderCutReportsPerPhase(t *testing.T) {
	r := newRecorder(nil)
	r.expected = [][]int32{{0, 1}, {}, {2}}
	if !r.acquire(2, time.Second) {
		t.Fatal("window full at start")
	}
	a, _ := r.register(0, 0, 0, true, 0)
	b, _ := r.register(1, 0, 0, false, 0) // expects nobody
	c, _ := r.register(2, 0, 0, true, 0)
	r.onDelivery(0, eventID(a)) // sub 1 never gets event a
	r.onDelivery(2, eventID(c))
	r.onDelivery(2, eventID(c)) // twice
	r.onDelivery(5, eventID(b)) // to someone outside the set
	r.onDelivery(5, "e999")     // names no event of this run
	m, expected, deliveries, _ := r.cut(0)
	if want := (mismatch{Missing: 1, Duplicate: 1, Unexpected: 2}); m != want {
		t.Errorf("first cut: %+v, want %+v", m, want)
	}
	if expected != 3 || len(deliveries) != 4 {
		t.Errorf("first cut: %d expected deliveries, %d recorded; want 3, 4", expected, len(deliveries))
	}
	if len(r.tokens) != 0 || r.pending != 0 {
		t.Errorf("after cut: %d tokens held, %d pending; want 0, 0", len(r.tokens), r.pending)
	}
	if m, _, _, _ := r.cut(r.count()); m.total() != 0 {
		t.Errorf("second cut inherited the first's failures: %+v", m)
	}
}
