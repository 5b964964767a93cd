package sparse

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// genNonNegVector produces a reproducible random sparse vector with
// non-negative weights, the shape of real tf-idf vectors (the relatedness
// kernel only ever sees those).
func genNonNegVector(r *rand.Rand, maxDim int32) Vector {
	n := r.Intn(24)
	m := make(map[int32]float64, n)
	for i := 0; i < n; i++ {
		m[r.Int31n(maxDim)] = r.Float64() * 10
	}
	return FromMap(m)
}

// naiveDot is the map-based reference inner product.
func naiveDot(a, b Vector) float64 {
	m := make(map[int32]float64, a.NNZ())
	a.Range(func(id int32, w float64) { m[id] = w })
	var s float64
	b.Range(func(id int32, w float64) { s += m[id] * w })
	return s
}

func TestNormalize(t *testing.T) {
	v := FromMap(map[int32]float64{1: 3, 4: 4})
	u := v.Normalize()
	if !almostEqual(u.Norm, 5) {
		t.Errorf("Norm = %v, want 5", u.Norm)
	}
	if !almostEqual(u.Vec.Norm(), 1) {
		t.Errorf("normalized vector has norm %v", u.Vec.Norm())
	}
	if !almostEqual(u.Vec.Weight(1), 0.6) || !almostEqual(u.Vec.Weight(4), 0.8) {
		t.Errorf("normalized weights wrong: %v", u.Vec)
	}
	z := Vector{}.Normalize()
	if !z.IsZero() || z.Norm != 0 {
		t.Errorf("zero vector normalized to %v", z)
	}
}

// TestDotUnitMatchesDot pins the tightened merge loop to the naive map
// reference across random vectors, bit for bit: both add the shared ids'
// products in ascending id order, and the reference's extra exact +0
// products leave its sum unchanged.
func TestDotUnitMatchesDot(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		a := genNonNegVector(r, 64).Normalize()
		b := genNonNegVector(r, 64).Normalize()
		if got, want := DotUnit(a, b), naiveDot(a.Vec, b.Vec); got != want {
			t.Fatalf("DotUnit = %v, naive = %v (a=%v b=%v)", got, want, a.Vec, b.Vec)
		}
	}
	if d := DotUnit(genNonNegVector(r, 64).Normalize(), Unit{}); d != 0 {
		t.Errorf("dot with zero unit = %v", d)
	}
}

// decodeVec turns fuzz bytes into a small sparse vector: pairs of
// (dim byte, weight byte) with weight scaled into (0, 8].
func decodeVec(data []byte) Vector {
	m := make(map[int32]float64)
	for len(data) >= 3 {
		dim := int32(binary.LittleEndian.Uint16(data) % 96)
		w := float64(data[2]%64) / 8
		if w > 0 {
			m[dim] = w
		}
		data = data[3:]
	}
	return FromMap(m)
}

// TestNormWithin checks the masked norm against the norm of the Mask of the
// same dimension set, and the Cauchy–Schwarz bound it exists for: a unit's
// inner product with any unit supported inside the set is at most its norm
// within the set.
func TestNormWithin(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		u := genNonNegVector(r, 150).Normalize()
		var basis []int32
		bits := make([]uint64, 2) // covers ids < 128; ids beyond count as unset
		for d := int32(0); d < 150; d++ {
			if r.Intn(3) == 0 {
				if d < 128 {
					basis = append(basis, d)
					bits[d>>6] |= 1 << (uint(d) & 63)
				}
			}
		}
		got := u.NormWithin(bits)
		if want := Mask(u.Vec, basis).Norm(); !almostEqual(got, want) {
			t.Fatalf("NormWithin = %v, norm of the masked vector = %v", got, want)
		}
		b := Mask(genNonNegVector(r, 150), basis).Normalize()
		if d := DotUnit(u, b); d > got+1e-12 {
			t.Fatalf("dot %v with a unit inside the set exceeds NormWithin %v", d, got)
		}
	}
	if n := (&Unit{}).NormWithin([]uint64{^uint64(0)}); n != 0 {
		t.Errorf("zero unit: NormWithin = %v", n)
	}
}
