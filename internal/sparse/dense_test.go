package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// unitOf builds a Unit over the given ids with random positive weights,
// normalized like a real projection.
func unitOf(r *rand.Rand, ids ...int32) Unit {
	m := make(map[int32]float64, len(ids))
	for _, id := range ids {
		m[id] = 0.1 + r.Float64()*10
	}
	return FromMap(m).Normalize()
}

// randomIDs draws k distinct ids below n.
func randomIDs(r *rand.Rand, k int, n int32) []int32 {
	ids := make([]int32, k)
	for i, p := range r.Perm(int(n))[:k] {
		ids[i] = int32(p)
	}
	return ids
}

// checkDense asserts that the scatter/gather dot of (a, b) has exactly
// DotUnit's bits and that the scratch is all-zero again afterwards. dense
// is deliberately never cleared by the caller: a cell left behind by one
// row would corrupt a later one.
func checkDense(t *testing.T, dense []float64, a, b Unit) {
	t.Helper()
	a.Scatter(dense)
	got := DotDense(dense, &b)
	a.Unscatter(dense)
	if want := DotUnit(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("DotDense = %v (%#x), DotUnit = %v (%#x)\na=%v\nb=%v",
			got, math.Float64bits(got), want, math.Float64bits(want), a.Vec, b.Vec)
	}
	for id, w := range dense {
		if w != 0 || math.Signbit(w) {
			t.Fatalf("scratch[%d] = %v after Unscatter", id, w)
		}
	}
}

// TestDotDenseMatchesDotUnit is the bit-identity property behind the batch
// path's row kernel, over the operand shapes that stress a merge
// differently from a gather.
func TestDotDenseMatchesDotUnit(t *testing.T) {
	const n = 128
	r := rand.New(rand.NewSource(47))
	dense := make([]float64, n)
	shared := unitOf(r, 3, 9, 27, 81)
	shapes := []struct {
		name string
		a, b Unit
	}{
		{"empty a", Unit{}, unitOf(r, 1, 2, 3)},
		{"empty b", unitOf(r, 1, 2, 3), Unit{}},
		{"both empty", Unit{}, Unit{}},
		{"disjoint", unitOf(r, 0, 2, 4, 6), unitOf(r, 1, 3, 5, 7)},
		{"identical", shared, shared},
		{"strict subset", unitOf(r, 5, 6), unitOf(r, 4, 5, 6, 7, 90)},
		{"strict superset", unitOf(r, 4, 5, 6, 7, 90), unitOf(r, 5, 6)},
		{"single id, hit", unitOf(r, 42), unitOf(r, 41, 42, 43)},
		{"single id, miss", unitOf(r, 42), unitOf(r, 41, 43)},
		{"last id is n-1, both", unitOf(r, 0, n-1), unitOf(r, 64, n-1)},
		{"last id is n-1, a only", unitOf(r, n-1), unitOf(r, 0)},
		{"every id", unitOf(r, randomIDs(r, n, n)...), unitOf(r, randomIDs(r, n, n)...)},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) { checkDense(t, dense, s.a, s.b) })
	}
	t.Run("random rows", func(t *testing.T) {
		for row := 0; row < 1000; row++ {
			a := unitOf(r, randomIDs(r, r.Intn(40), n)...)
			b := unitOf(r, randomIDs(r, r.Intn(40), n)...)
			checkDense(t, dense, a, b)
		}
	})
}

// FuzzDotUnitDense drives the same property over adversarial id layouts
// (decodeVec keeps ids below 96, and 95 is seeded as the last-cell case).
func FuzzDotUnitDense(f *testing.F) {
	f.Add([]byte{1, 0, 8, 2, 0, 16}, []byte{1, 0, 8})
	f.Add([]byte{}, []byte{5, 0, 63})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1}, []byte{2, 0, 1, 3, 0, 1})
	f.Add([]byte{95, 0, 7}, []byte{0, 0, 3, 95, 0, 9})
	f.Add([]byte{7, 0, 63}, []byte{7, 0, 63})
	dense := make([]float64, 96)
	f.Fuzz(func(t *testing.T, araw, braw []byte) {
		checkDense(t, dense, decodeVec(araw).Normalize(), decodeVec(braw).Normalize())
	})
}

// matchHeavyLen draws a unit length from the mix the match_heavy benchmark
// population resolves to: half the units are empty (terms outside the
// theme's basis), p75 ≈ 20 ids, p95 ≈ 128, the longest 1,302.
func matchHeavyLen(r *rand.Rand) int {
	switch p := r.Float64(); {
	case p < 0.50:
		return 0
	case p < 0.75:
		return 1 + r.Intn(20)
	case p < 0.95:
		return 20 + r.Intn(108)
	default:
		return 128 + r.Intn(1175)
	}
}

var dotSink float64

// BenchmarkDotUnit prices one similarity row — one subscription unit
// against 16 event units, the match_heavy batch width — through the merge
// and through scatter/gather/un-scatter, over the same operands. One op is
// one row. A row's subscription unit is never empty: both row kernels
// answer that case without a dot product.
func BenchmarkDotUnit(b *testing.B) {
	const (
		n    = 1400 // ≈ the benchmark index's document count
		rows = 256
		cols = 16
	)
	r := rand.New(rand.NewSource(53))
	subs := make([]Unit, rows)
	for i := range subs {
		k := matchHeavyLen(r)
		for k == 0 {
			k = matchHeavyLen(r)
		}
		subs[i] = unitOf(r, randomIDs(r, k, n)...)
	}
	evs := make([]Unit, rows*cols)
	for i := range evs {
		evs[i] = unitOf(r, randomIDs(r, matchHeavyLen(r), n)...)
	}
	b.Run("merge", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			row := i % rows
			a := subs[row]
			for _, e := range evs[row*cols : (row+1)*cols] {
				s += DotUnit(a, e)
			}
		}
		dotSink = s
	})
	b.Run("dense", func(b *testing.B) {
		dense := make([]float64, n)
		var s float64
		for i := 0; i < b.N; i++ {
			row := i % rows
			a := &subs[row]
			a.Scatter(dense)
			col := evs[row*cols : (row+1)*cols]
			for j := range col {
				s += DotDense(dense, &col[j])
			}
			a.Unscatter(dense)
		}
		dotSink = s
	})
}
