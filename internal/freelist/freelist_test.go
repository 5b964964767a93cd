package freelist

import (
	"runtime"
	"testing"
)

// TestListKeepsUpToItsCapacity: an empty list lends nothing, a list keeps
// what it is given up to its capacity, across a GC, and drops the rest.
func TestListKeepsUpToItsCapacity(t *testing.T) {
	l := make(List[int], 2)
	if x := l.Get(); x != nil {
		t.Fatalf("empty list lent %v", x)
	}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // full: dropped
	runtime.GC()
	if x, y := l.Get(), l.Get(); x != a || y != b {
		t.Fatalf("got %p, %p, want %p, %p", x, y, a, b)
	}
	if x := l.Get(); x != nil {
		t.Fatalf("list kept a value beyond its capacity: %p", x)
	}
}
