package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genVector produces a reproducible random sparse vector for property tests.
func genVector(r *rand.Rand, maxDim int32) Vector {
	n := r.Intn(20)
	m := make(map[int32]float64, n)
	for i := 0; i < n; i++ {
		m[r.Int31n(maxDim)] = r.Float64()*10 - 5
	}
	return FromMap(m)
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestNewSortsAndCopies(t *testing.T) {
	ids := []int32{5, 1, 3}
	weights := []float64{0.5, 0.1, 0.3}
	v := New(ids, weights)
	if got := v.Dims(); !reflect.DeepEqual(got, []int32{1, 3, 5}) {
		t.Fatalf("Dims = %v", got)
	}
	ids[0] = 99 // mutate the input; the vector must be unaffected
	if v.Weight(5) != 0.5 || v.Weight(1) != 0.1 || v.Weight(3) != 0.3 {
		t.Errorf("weights corrupted after input mutation: %v", v)
	}
}

func TestNewPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on mismatched lengths")
		}
	}()
	New([]int32{1}, []float64{1, 2})
}

func TestFromMapDropsZeros(t *testing.T) {
	v := FromMap(map[int32]float64{1: 0, 2: 3.5, 7: 0})
	if v.NNZ() != 1 || v.Weight(2) != 3.5 {
		t.Errorf("FromMap kept zero entries: %v", v)
	}
}

func TestWeightAbsent(t *testing.T) {
	v := FromMap(map[int32]float64{2: 1})
	if v.Weight(3) != 0 {
		t.Error("Weight of absent dim != 0")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var v Vector
	if !v.IsZero() || v.NNZ() != 0 || v.Norm() != 0 {
		t.Errorf("zero Vector not usable: %v", v)
	}
	if d := Euclidean(v, FromMap(map[int32]float64{1: 3, 2: 4})); d != 5 {
		t.Errorf("Euclidean(zero, (3,4)) = %v, want 5", d)
	}
}

func TestDot(t *testing.T) {
	a := FromMap(map[int32]float64{1: 2, 3: 4, 5: 1})
	b := FromMap(map[int32]float64{3: 0.5, 5: 2, 9: 7})
	if got := DotUnit(Unit{Vec: a}, Unit{Vec: b}); !almostEqual(got, 4) {
		t.Errorf("DotUnit = %v, want 4", got)
	}
}

func TestEuclideanKnown(t *testing.T) {
	a := FromMap(map[int32]float64{1: 1, 2: 2})
	b := FromMap(map[int32]float64{2: 2, 3: 2})
	// difference is (1,0,-2) -> sqrt(5)
	if got := Euclidean(a, b); !almostEqual(got, math.Sqrt(5)) {
		t.Errorf("Euclidean = %v, want sqrt(5)", got)
	}
}

func TestMask(t *testing.T) {
	v := FromMap(map[int32]float64{1: 1, 3: 3, 5: 5, 8: 8})
	got := Mask(v, []int32{3, 4, 8})
	want := FromMap(map[int32]float64{3: 3, 8: 8})
	if !Equal(got, want) {
		t.Errorf("Mask = %v, want %v", got, want)
	}
	if !Mask(v, nil).IsZero() {
		t.Error("Mask with empty basis not zero")
	}
}

func TestScaleAndAdd(t *testing.T) {
	a := FromMap(map[int32]float64{1: 1, 2: 2})
	b := FromMap(map[int32]float64{2: -2, 3: 3})
	sum := Add(a, b)
	want := FromMap(map[int32]float64{1: 1, 3: 3})
	if !Equal(sum, want) {
		t.Errorf("Add = %v, want %v (cancelling component dropped)", sum, want)
	}
	if got := Scale(a, 2).Weight(2); got != 4 {
		t.Errorf("Scale weight = %v, want 4", got)
	}
}

// Property: Euclidean is a metric on the sampled vectors — symmetry,
// identity, triangle inequality.
func TestEuclideanMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a, b, c := genVector(r, 50), genVector(r, 50), genVector(r, 50)
		dab, dba := Euclidean(a, b), Euclidean(b, a)
		if !almostEqual(dab, dba) {
			t.Fatalf("not symmetric: %v vs %v", dab, dba)
		}
		if d := Euclidean(a, a); !almostEqual(d, 0) {
			t.Fatalf("d(a,a) = %v", d)
		}
		if dac, dcb := Euclidean(a, c), Euclidean(c, b); dab > dac+dcb+1e-9 {
			t.Fatalf("triangle violated: d(a,b)=%v > %v", dab, dac+dcb)
		}
	}
}

// Property: Euclidean agrees with a dense reference implementation.
func TestEuclideanMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const dims = 40
	for i := 0; i < 200; i++ {
		a, b := genVector(r, dims), genVector(r, dims)
		var s float64
		for d := int32(0); d < dims; d++ {
			diff := a.Weight(d) - b.Weight(d)
			s += diff * diff
		}
		if want := math.Sqrt(s); !almostEqual(Euclidean(a, b), want) {
			t.Fatalf("sparse %v != dense %v", Euclidean(a, b), want)
		}
	}
}

// Property: DotUnit agrees with a dense reference implementation on any
// two vectors, signed weights included.
func TestDotMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const dims = 40
	for i := 0; i < 200; i++ {
		a, b := genVector(r, dims), genVector(r, dims)
		var s float64
		for d := int32(0); d < dims; d++ {
			s += a.Weight(d) * b.Weight(d)
		}
		if got := DotUnit(Unit{Vec: a}, Unit{Vec: b}); !almostEqual(got, s) {
			t.Fatalf("sparse %v != dense %v", got, s)
		}
	}
}

// Property: Mask(v, basis) keeps exactly the intersection.
func TestMaskProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genVector(r, 30)
		basis := genVector(r, 30).Dims()
		masked := Mask(v, basis)
		inBasis := make(map[int32]bool, len(basis))
		for _, id := range basis {
			inBasis[id] = true
		}
		ok := true
		v.Range(func(id int32, w float64) {
			if inBasis[id] && masked.Weight(id) != w {
				ok = false
			}
			if !inBasis[id] && masked.Weight(id) != 0 {
				ok = false
			}
		})
		return ok && masked.NNZ() <= v.NNZ()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormMatchesEuclideanFromZero(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var zero Vector
	for i := 0; i < 100; i++ {
		v := genVector(r, 30)
		if !almostEqual(v.Norm(), Euclidean(v, zero)) {
			t.Fatalf("Norm %v != Euclidean from zero %v", v.Norm(), Euclidean(v, zero))
		}
	}
}
