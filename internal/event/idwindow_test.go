package event

import (
	"fmt"
	"testing"
)

func TestIDWindow(t *testing.T) {
	w := IDWindow{Size: 3}
	if w.seen != nil || w.order != nil {
		t.Fatal("an unused window must hold nothing: pre-sizing cost 150 KB per idle subscription")
	}
	for _, id := range []string{"a", "b", "c"} {
		if !w.Fresh(id) {
			t.Errorf("first sight of %q not fresh", id)
		}
	}
	if w.Fresh("a") || w.Fresh("c") {
		t.Error("ID inside the window reported fresh")
	}
	if !w.Fresh("d") { // evicts a, the oldest
		t.Error("d not fresh")
	}
	if w.Fresh("b") || !w.Fresh("a") { // a again evicts b
		t.Error("after one eviction: b must still be held, a must be forgotten")
	}
	if !w.Fresh("b") {
		t.Error("b was evicted by a's return and must be fresh again")
	}
	// Long run: the window never holds more than Size IDs, and exactly the
	// last Size are remembered.
	for i := 0; i < 100; i++ {
		w.Fresh(fmt.Sprint(i))
	}
	if len(w.seen) != 3 || len(w.order) != 3 {
		t.Errorf("window holds %d/%d IDs, want 3", len(w.seen), len(w.order))
	}
	if w.Fresh("97") || w.Fresh("98") || w.Fresh("99") || !w.Fresh("96") {
		t.Error("window does not hold exactly the last three IDs")
	}
}
