package semantics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"thematicep/internal/sparse"
)

// genNonNegVector produces a reproducible random sparse vector with
// non-negative weights, the shape of real tf-idf vectors (the relatedness
// kernel only ever sees those).
func genNonNegVector(r *rand.Rand, maxDim int32) sparse.Vector {
	n := r.Intn(24)
	m := make(map[int32]float64, n)
	for i := 0; i < n; i++ {
		m[r.Int31n(maxDim)] = r.Float64() * 10
	}
	return sparse.FromMap(m)
}

// naiveDot is the map-based reference inner product.
func naiveDot(a, b sparse.Vector) float64 {
	m := make(map[int32]float64, a.NNZ())
	a.Range(func(id int32, w float64) { m[id] = w })
	var s float64
	b.Range(func(id int32, w float64) { s += m[id] * w })
	return s
}

// naiveRelatedness is the measure on two nonzero raw vectors as the paper
// states it: Eq. 5 between two Scale-normalized copies, mapped by Eq. 6, or
// the cosine of §3.1.
func naiveRelatedness(dist Distance, a, b sparse.Vector) float64 {
	if dist == Cosine {
		return naiveDot(a, b) / (a.Norm() * b.Norm())
	}
	return 1 / (sparse.Euclidean(sparse.Scale(a, 1/a.Norm()), sparse.Scale(b, 1/b.Norm())) + 1)
}

// TestNormalizedEuclideanIdentity is the kernel-identity property test:
// relatedness from the dot product of pre-normalized vectors (Distance.ofDot
// on sparse.DotUnit) must agree with the naive path — Scale(·, 1/‖·‖) twice,
// then the three-branch Euclidean merge of Eq. 5 and Eq. 6, or the cosine.
// The identity ‖â−b̂‖² = 2−2·â·b̂ is exact over the reals but not bit for bit
// in floats: when â·b̂ → 1 the subtraction cancels catastrophically,
// bounding the distance error by ~√(n·ε) ≈ 1e-7 and the relatedness error
// by the same. The tolerance below (1e-7 absolute on the relatedness)
// documents that contract; random disjoint-support pairs agree to ~1e-15.
func TestNormalizedEuclideanIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		av := genNonNegVector(r, 48)
		bv := genNonNegVector(r, 48)
		if av.IsZero() || bv.IsZero() {
			continue
		}
		d := sparse.DotUnit(av.Normalize(), bv.Normalize())
		for _, dist := range []Distance{Euclidean, Cosine} {
			got, want := dist.ofDot(d), naiveRelatedness(dist, av, bv)
			if math.Abs(got-want) > 1e-7 {
				t.Fatalf("distance %d: dot kernel %v vs naive %v (Δ=%g)", dist, got, want, got-want)
			}
		}
	}
}

// TestNormalizedEuclideanExtremes covers the clamp and the ends of the
// range.
func TestNormalizedEuclideanExtremes(t *testing.T) {
	a := sparse.FromMap(map[int32]float64{1: 2, 2: 1}).Normalize()
	// Self dot: â·â = 1−ε in floats, inside the identity band, so the
	// relatedness is exactly 1.
	if r := Euclidean.ofDot(sparse.DotUnit(a, a)); r != 1 {
		t.Errorf("self relatedness = %v, want exactly 1", r)
	}
	exact := sparse.FromMap(map[int32]float64{3: 1}).Normalize()
	for _, dist := range []Distance{Euclidean, Cosine} {
		if r := dist.ofDot(sparse.DotUnit(exact, exact)); r != 1 {
			t.Errorf("distance %d: single-component self relatedness = %v, want exactly 1 (dot is exactly 1, clamped)", dist, r)
		}
		if r := dist.ofDot(1 + 1e-15); r != 1 {
			t.Errorf("distance %d: dot above 1 gives %v, want the clamp's 1", dist, r)
		}
	}
	b := sparse.FromMap(map[int32]float64{7: 3}).Normalize()
	d := sparse.DotUnit(a, b)
	if r := Euclidean.ofDot(d); math.Abs(r-1/(math.Sqrt2+1)) > 1e-15 {
		t.Errorf("disjoint Euclidean relatedness = %v, want 1/(√2+1)", r)
	}
	if r := Cosine.ofDot(d); r != 0 {
		t.Errorf("disjoint cosine relatedness = %v, want 0", r)
	}
}

// decodeVec turns fuzz bytes into a small sparse vector: pairs of
// (dim byte, weight byte) with weight scaled into (0, 8].
func decodeVec(data []byte) sparse.Vector {
	m := make(map[int32]float64)
	for len(data) >= 3 {
		dim := int32(binary.LittleEndian.Uint16(data) % 96)
		w := float64(data[2]%64) / 8
		if w > 0 {
			m[dim] = w
		}
		data = data[3:]
	}
	return sparse.FromMap(m)
}

// FuzzUnitKernels drives sparse.DotUnit and the dot → relatedness map of
// both distances against the naive references on adversarial id layouts
// (shared prefixes, duplicates across vectors, disjoint tails).
func FuzzUnitKernels(f *testing.F) {
	f.Add([]byte{1, 0, 8, 2, 0, 16}, []byte{1, 0, 8})
	f.Add([]byte{}, []byte{5, 0, 63})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1}, []byte{2, 0, 1, 3, 0, 1})
	f.Fuzz(func(t *testing.T, araw, braw []byte) {
		a, b := decodeVec(araw), decodeVec(braw)
		ua, ub := a.Normalize(), b.Normalize()
		d := sparse.DotUnit(ua, ub)
		if want := naiveDot(ua.Vec, ub.Vec); d != want {
			t.Fatalf("DotUnit = %v, naive = %v", d, want)
		}
		if a.IsZero() || b.IsZero() {
			return
		}
		for _, dist := range []Distance{Euclidean, Cosine} {
			got := dist.ofDot(d)
			if math.IsNaN(got) || got < 0 || got > 1 {
				t.Fatalf("distance %d: relatedness %v outside [0, 1]", dist, got)
			}
			if want := naiveRelatedness(dist, a, b); math.Abs(got-want) > 1e-7 {
				t.Fatalf("distance %d: identity: %v vs %v", dist, got, want)
			}
		}
		// Near-identical pairs: b is a with one weight nudged by 2^-k, so
		// their dot approaches 1 and 2−2d cancels. The kernel's Euclidean
		// relatedness must stay within the error of that cancellation plus
		// the identity band of sparse.Euclidean's, relative to it: with
		// r = 1/(D+1), |Δr|/r ≤ |ΔD| ≤ √(2(identityBand + nnz·ε)).
		if len(braw) < 2 {
			return
		}
		near := make(map[int32]float64, a.NNZ())
		k, nudge := int(braw[0])%a.NNZ(), math.Ldexp(1, -int(10+braw[1]%44))
		i := 0
		a.Range(func(id int32, w float64) {
			if i == k {
				w *= 1 + nudge
			}
			near[id] = w
			i++
		})
		nv := sparse.FromMap(near)
		got := Euclidean.ofDot(sparse.DotUnit(ua, nv.Normalize()))
		want := naiveRelatedness(Euclidean, a, nv)
		tol := math.Sqrt(2 * (identityBand + float64(2*a.NNZ())*0x1p-52))
		if math.Abs(got-want) > tol*want {
			t.Fatalf("near-identical pair (nudge %g): kernel %v vs sparse.Euclidean %v, beyond relative %g", nudge, got, want, tol)
		}
	})
}
