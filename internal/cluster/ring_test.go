package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	a := NewRing([]string{"n1:7070", "n2:7070", "n3:7070"})
	b := NewRing([]string{"n3:7070", "n1:7070", "n2:7070"})
	for i := 0; i < 200; i++ {
		tag := fmt.Sprintf("theme-%d", i)
		if a.Owner(tag) != b.Owner(tag) {
			t.Fatalf("owner of %q differs across member order: %q vs %q", tag, a.Owner(tag), b.Owner(tag))
		}
	}
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Errorf("memberships differ: %v vs %v", a.Nodes(), b.Nodes())
	}
}

func TestRingOwnerCanonicalizesTags(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	if r.Owner("Land Transport") != r.Owner("land transport") {
		t.Error("canonically equal tags shard differently")
	}
}

func TestRingDistribution(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[r.Owner(fmt.Sprintf("theme-%d", i))]++
	}
	for _, n := range r.Nodes() {
		if counts[n] == 0 {
			t.Errorf("node %q owns no tags out of 300: %v", n, counts)
		}
	}
}

func TestRingOwnersEmptyThemeMapsToAllNodes(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	owners := r.Owners(nil)
	if len(owners) != 3 {
		t.Fatalf("empty theme owners = %v, want all 3 nodes", owners)
	}
	if !r.Owns("b", nil) {
		t.Error("every node should own the empty theme set")
	}
}

func TestRingOwnersDedupes(t *testing.T) {
	r := NewRing([]string{"a", "b"})
	owners := r.Owners([]string{"x", "x", "X"})
	if len(owners) != 1 {
		t.Errorf("owners of a repeated tag = %v, want one node", owners)
	}
}

// TestRingConsistency asserts the defining property of consistent hashing:
// removing one member only reassigns the tags that member owned.
func TestRingConsistency(t *testing.T) {
	full := NewRing([]string{"a", "b", "c", "d"})
	reduced := NewRing([]string{"a", "b", "c"})
	moved := 0
	for i := 0; i < 500; i++ {
		tag := fmt.Sprintf("theme-%d", i)
		before := full.Owner(tag)
		after := reduced.Owner(tag)
		if before != "d" && before != after {
			t.Fatalf("tag %q moved from surviving node %q to %q", tag, before, after)
		}
		if before != after {
			moved++
		}
	}
	if moved == 0 {
		t.Error("expected some tags to move off the removed node")
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r := NewRing([]string{"solo"})
	if got := r.Owner("anything"); got != "solo" {
		t.Errorf("Owner = %q, want solo", got)
	}
}

func BenchmarkRingOwners(b *testing.B) {
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("broker-%d:7070", i)
	}
	r := NewRing(nodes)
	theme := []string{"land transport", "road traffic", "public transport"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Owners(theme)) == 0 {
			b.Fatal("no owners")
		}
	}
}
