package subindex

// Posting-list primitives: sorted dense uint32 id slices with galloping
// (exponential-probe) search. Galloping plays the role of skip pointers in
// a classic inverted index — instead of materialized skip nodes, a reader
// that needs to advance far ahead probes exponentially (1, 2, 4, ...) and
// then binary-searches the final octave, so advancing within a list of
// length n to a target k positions ahead costs O(log k), not O(k) and not
// O(log n). Checking a subscription's few requirement terms against an
// event's term set therefore costs a few short probes, not a scan.

// gallop returns the smallest index i in xs[from:] such that xs[i] >=
// target, or len(xs) when every remaining element is smaller. xs must be
// sorted ascending. It exponentially widens the probe window starting at
// from, then binary-searches inside the final window.
func gallop(xs []uint32, from int, target uint32) int {
	n := len(xs)
	if from >= n || xs[from] >= target {
		return from
	}
	// Invariant: xs[lo] < target. Probe lo+1, lo+2, lo+4, ... until the
	// window end reaches or passes an element >= target.
	lo, step := from, 1
	for lo+step < n && xs[lo+step] < target {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > n {
		hi = n
	}
	// Binary search in (lo, hi]: xs[lo] < target, xs[hi] >= target or hi==n.
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// containsAll reports whether every element of sub appears in super. Both
// must be sorted ascending; sub is typically a subscription's requirement
// terms (a handful) and super the event's term ids, so each membership
// check is one galloping search continuing from the previous position.
func containsAll(sub, super []uint32) bool {
	pos := 0
	for _, x := range sub {
		pos = gallop(super, pos, x)
		if pos >= len(super) || super[pos] != x {
			return false
		}
	}
	return true
}

// insertSorted inserts x into sorted xs, keeping it sorted. Duplicate
// insertion is a no-op. The common broker pattern — monotonically growing
// dense ids — appends without moving anything.
func insertSorted(xs []uint32, x uint32) []uint32 {
	n := len(xs)
	if n == 0 || xs[n-1] < x {
		return append(xs, x)
	}
	i := gallop(xs, 0, x)
	if i < n && xs[i] == x {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// deleteSorted removes x from sorted xs, compacting the slice in place —
// no tombstones: a removed subscription costs one memmove now instead of a
// dead entry on every future enumeration.
func deleteSorted(xs []uint32, x uint32) []uint32 {
	i := gallop(xs, 0, x)
	if i >= len(xs) || xs[i] != x {
		return xs
	}
	copy(xs[i:], xs[i+1:])
	return xs[:len(xs)-1]
}
