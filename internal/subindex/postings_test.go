package subindex

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveIntersect is the oracle: map-based set intersection, sorted.
func naiveIntersect(a, b []uint32) []uint32 {
	inA := make(map[uint32]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	var out []uint32
	for _, x := range b {
		if inA[x] {
			out = append(out, x)
			delete(inA, x)
		}
	}
	slices.Sort(out)
	return out
}

func sortedSet(xs []uint32) []uint32 {
	slices.Sort(xs)
	return slices.Compact(xs)
}

func TestGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]uint32, rng.Intn(64))
		for i := range xs {
			xs[i] = uint32(rng.Intn(100))
		}
		xs = sortedSet(xs)
		for target := uint32(0); target <= 100; target++ {
			for from := 0; from <= len(xs); from++ {
				got := gallop(xs, from, target)
				want := from
				for want < len(xs) && xs[want] < target {
					want++
				}
				if got != want {
					t.Fatalf("gallop(%v, %d, %d) = %d, want %d", xs, from, target, got, want)
				}
			}
		}
	}
}

// TestIntersectProperty drives the posting kernels against the naive
// map-based intersection over random list shapes, including the skewed
// short-vs-long case galloping exists for: containsAll is the subset test
// (a ∩ b = a), gallop finds the first element not below a target, and
// insertSorted/deleteSorted keep a posting the sorted union and difference.
func TestIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		var lists [2][]uint32
		for i := range lists {
			// Mix tiny and large lists with overlapping ranges.
			l := make([]uint32, rng.Intn(3+rng.Intn(200)))
			for j := range l {
				l[j] = uint32(rng.Intn(150))
			}
			lists[i] = sortedSet(l)
		}
		checkKernels(t, lists[0], lists[1])
		// A random subset of the long list, so containsAll also holds.
		var sub []uint32
		for _, x := range lists[1] {
			if rng.Intn(8) == 0 {
				sub = append(sub, x)
			}
		}
		checkKernels(t, sub, lists[1])
	}
}

// checkKernels checks every posting kernel on sorted unique lists a and b
// against the naive oracle.
func checkKernels(t *testing.T, a, b []uint32) {
	t.Helper()
	both := naiveIntersect(a, b)
	if got, want := containsAll(a, b), len(both) == len(a); got != want {
		t.Fatalf("containsAll(%v, %v) = %v, want %v", a, b, got, want)
	}
	if !containsAll(both, a) || !containsAll(both, b) {
		t.Fatalf("containsAll rejects %v, the intersection of %v and %v", both, a, b)
	}
	for _, x := range a {
		want := 0
		for want < len(b) && b[want] < x {
			want++
		}
		if got := gallop(b, 0, x); got != want {
			t.Fatalf("gallop(%v, 0, %d) = %d, want %d", b, x, got, want)
		}
	}
	union := slices.Clone(b)
	for _, x := range a {
		union = insertSorted(union, x)
	}
	if want := sortedSet(append(slices.Clone(a), b...)); !slices.Equal(union, want) {
		t.Fatalf("inserting %v into %v gives %v, want %v", a, b, union, want)
	}
	for _, x := range a {
		union = deleteSorted(union, x)
	}
	var diff []uint32
	for _, x := range b {
		if !slices.Contains(both, x) {
			diff = append(diff, x)
		}
	}
	if !slices.Equal(union, diff) {
		t.Fatalf("deleting %v from their union with %v gives %v, want %v", a, b, union, diff)
	}
}

func TestInsertDeleteSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs []uint32
	oracle := map[uint32]bool{}
	for op := 0; op < 2000; op++ {
		x := uint32(rng.Intn(80))
		if rng.Intn(2) == 0 {
			xs = insertSorted(xs, x)
			oracle[x] = true
		} else {
			xs = deleteSorted(xs, x)
			delete(oracle, x)
		}
		want := make([]uint32, 0, len(oracle))
		for k := range oracle {
			want = append(want, k)
		}
		slices.Sort(want)
		if !slices.Equal(xs, want) {
			t.Fatalf("op %d: xs = %v, want %v", op, xs, want)
		}
	}
}

// FuzzContainsAll decodes two arbitrary byte strings into sorted term-id
// sets and checks containment, galloping search and sorted insert/delete
// against the naive oracle.
func FuzzContainsAll(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 0, 128, 7}, []byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		decode := func(bs []byte) []uint32 {
			xs := make([]uint32, len(bs))
			for i, v := range bs {
				// Spread ids so runs and gaps both occur.
				xs[i] = uint32(v) * uint32(i%5+1)
			}
			return sortedSet(xs)
		}
		checkKernels(t, decode(a), decode(b))
	})
}
