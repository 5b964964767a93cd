// Package sparse implements the sparse weighted vectors used by the
// distributional vector space model (paper §4.1).
//
// A term is represented as a weighted vector over document dimensions
// (Eq. 1). Only non-zero components are stored, matching the paper's note
// that projection runs in O(|V|) when only non-zero components are kept.
// Document ids are dense small integers assigned by the index, so vectors
// are stored as parallel sorted slices rather than maps: this keeps distance
// computation allocation-free and cache-friendly on the matching hot path.
package sparse

import (
	"math"
	"sort"
)

// Vector is a sparse vector: sorted unique dimension ids with parallel
// weights. The zero value is the empty (all-zero) vector and is ready to use.
type Vector struct {
	ids     []int32
	weights []float64
}

// New builds a Vector from parallel id/weight slices. The input need not be
// sorted; ids must be unique. New copies both slices.
func New(ids []int32, weights []float64) Vector {
	if len(ids) != len(weights) {
		panic("sparse: ids and weights length mismatch")
	}
	v := Vector{
		ids:     append([]int32(nil), ids...),
		weights: append([]float64(nil), weights...),
	}
	sort.Sort(&v)
	return v
}

// FromMap builds a Vector from a dimension→weight map, dropping zero weights.
func FromMap(m map[int32]float64) Vector {
	ids := make([]int32, 0, len(m))
	for id, w := range m {
		if w != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	weights := make([]float64, len(ids))
	for i, id := range ids {
		weights[i] = m[id]
	}
	return Vector{ids: ids, weights: weights}
}

// Len implements sort.Interface together with Less and Swap.
func (v *Vector) Len() int { return len(v.ids) }

// Less implements sort.Interface.
func (v *Vector) Less(i, j int) bool { return v.ids[i] < v.ids[j] }

// Swap implements sort.Interface.
func (v *Vector) Swap(i, j int) {
	v.ids[i], v.ids[j] = v.ids[j], v.ids[i]
	v.weights[i], v.weights[j] = v.weights[j], v.weights[i]
}

// NNZ returns the number of non-zero components.
func (v Vector) NNZ() int { return len(v.ids) }

// IsZero reports whether the vector has no non-zero components.
func (v Vector) IsZero() bool { return len(v.ids) == 0 }

// Dims returns a copy of the non-zero dimension ids in ascending order.
func (v Vector) Dims() []int32 { return append([]int32(nil), v.ids...) }

// DimBound returns one past the largest non-zero dimension id, 0 for the
// zero vector: the smallest dense length that can index every component.
func (v Vector) DimBound() int {
	if len(v.ids) == 0 {
		return 0
	}
	return int(v.ids[len(v.ids)-1]) + 1
}

// Weight returns the weight of dimension id (0 if absent).
func (v Vector) Weight(id int32) float64 {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return v.weights[i]
	}
	return 0
}

// Range calls fn for each non-zero component in ascending id order.
func (v Vector) Range(fn func(id int32, w float64)) {
	for i, id := range v.ids {
		fn(id, v.weights[i])
	}
}

// Norm returns the Euclidean (L2) norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, w := range v.weights {
		s += w * w
	}
	return math.Sqrt(s)
}

// Euclidean returns the L2 distance between a and b (paper Eq. 5).
func Euclidean(a, b Vector) float64 {
	var (
		s    float64
		i, j int
	)
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			d := a.weights[i] - b.weights[j]
			s += d * d
			i++
			j++
		case a.ids[i] < b.ids[j]:
			s += a.weights[i] * a.weights[i]
			i++
		default:
			s += b.weights[j] * b.weights[j]
			j++
		}
	}
	for ; i < len(a.ids); i++ {
		s += a.weights[i] * a.weights[i]
	}
	for ; j < len(b.ids); j++ {
		s += b.weights[j] * b.weights[j]
	}
	return math.Sqrt(s)
}

// Unit is a unit-normalized vector bundled with the norm of the vector it
// was normalized from. Precomputing the normalization once per cached
// projection turns the per-pair relatedness — Euclidean or cosine alike —
// into a single allocation-free merged dot product (see DotUnit); the
// original norm is kept so callers can recover the raw vector's scale
// without touching it.
type Unit struct {
	// Vec has L2 norm 1, except the zero Unit whose Vec is the zero vector.
	Vec Vector
	// Norm is the L2 norm of the vector Vec was normalized from (0 for the
	// zero Unit).
	Norm float64
}

// IsZero reports whether the unit vector is the normalization of a zero
// vector.
func (u Unit) IsZero() bool { return u.Vec.IsZero() }

// Normalize returns the unit-normalized form of v with its original norm.
// The zero vector normalizes to the zero Unit.
func (v Vector) Normalize() Unit {
	n := v.Norm()
	if n == 0 {
		return Unit{}
	}
	return Unit{Vec: Scale(v, 1/n), Norm: n}
}

// DotUnit returns the inner product of two unit-normalized vectors. It is
// the scalar relatedness kernel: a branchy sorted merge over the two id
// slices, written with local slice headers and re-sliced weight slices so
// the compiler can hoist the bounds checks out of the loop. It allocates
// nothing and calls nothing. The merge reads only the ids and weights, so
// it is the inner product of any two vectors wrapped as Units.
func DotUnit(a, b Unit) float64 {
	aids, bids := a.Vec.ids, b.Vec.ids
	if len(aids) == 0 || len(bids) == 0 {
		return 0
	}
	// Re-slice the weights to the id lengths: inside the loop, i and j are
	// provably in range for aw/bw once they are in range for aids/bids.
	aw := a.Vec.weights[:len(aids)]
	bw := b.Vec.weights[:len(bids)]
	var (
		s    float64
		i, j int
	)
	for i < len(aids) && j < len(bids) {
		ai, bj := aids[i], bids[j]
		switch {
		case ai == bj:
			s += aw[i] * bw[j]
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return s
}

// Scatter, DotDense and Unscatter are DotUnit split for a row of dot
// products that share one operand: Scatter writes that operand into a dense
// all-zero scratch indexed by dimension id, DotDense is then a straight
// multiply-add walk over the other operand's ids — no merge, no
// data-dependent branch — and Unscatter restores the zeros. DotDense visits
// the shared ids in the same ascending order as DotUnit's merge and adds an
// exact ±0 product for every other id, which leaves a sum that started at
// +0 unchanged (weights are finite), so the result has DotUnit's bits.
// Every id of both operands must be below len(dense): callers size the
// scratch to the space's dimensionality once, not per call.

// Scatter writes u's weights into dense at u's ids. dense must be all-zero
// on entry so that Unscatter can restore it.
func (u *Unit) Scatter(dense []float64) {
	ids := u.Vec.ids
	w := u.Vec.weights[:len(ids)]
	for k, id := range ids {
		dense[id] = w[k]
	}
}

// Unscatter zeroes the cells Scatter(dense) wrote.
func (u *Unit) Unscatter(dense []float64) {
	for _, id := range u.Vec.ids {
		dense[id] = 0
	}
}

// DotDense returns the inner product of the unit scattered into dense with
// b, bit-identical to DotUnit of the two.
func DotDense(dense []float64, b *Unit) float64 {
	ids := b.Vec.ids
	w := b.Vec.weights[:len(ids)]
	var s float64
	for k, id := range ids {
		s += dense[id] * w[k]
	}
	return s
}

// NormWithin returns the L2 norm of u's components whose ids are set in
// bits (bit id&63 of word id>>6): the norm of u masked to a dimension set.
// Ids past the end of bits count as unset.
func (u *Unit) NormWithin(bits []uint64) float64 {
	ids := u.Vec.ids
	w := u.Vec.weights[:len(ids)]
	var s float64
	for k, id := range ids {
		if i := int(id >> 6); i < len(bits) && bits[i]>>(uint(id)&63)&1 != 0 {
			s += w[k] * w[k]
		}
	}
	return math.Sqrt(s)
}

// Mask returns the components of v whose dimension ids appear in basis.
// It is the projection primitive: Algorithm 1 zeroes components outside the
// thematic basis. The basis must be sorted ascending.
func Mask(v Vector, basis []int32) Vector {
	var (
		ids     []int32
		weights []float64
		i, j    int
	)
	for i < len(v.ids) && j < len(basis) {
		switch {
		case v.ids[i] == basis[j]:
			ids = append(ids, v.ids[i])
			weights = append(weights, v.weights[i])
			i++
			j++
		case v.ids[i] < basis[j]:
			i++
		default:
			j++
		}
	}
	return Vector{ids: ids, weights: weights}
}

// Scale returns v with every weight multiplied by f.
func Scale(v Vector, f float64) Vector {
	out := Vector{
		ids:     append([]int32(nil), v.ids...),
		weights: make([]float64, len(v.weights)),
	}
	for i, w := range v.weights {
		out.weights[i] = w * f
	}
	return out
}

// Add returns a + b: one sorted merge of the two id lists, adding the
// weights of shared ids and dropping every component whose weight is zero,
// as FromMap does.
func Add(a, b Vector) Vector {
	ids := make([]int32, 0, len(a.ids)+len(b.ids))
	weights := make([]float64, 0, cap(ids))
	for i, j := 0, 0; i < len(a.ids) || j < len(b.ids); {
		var (
			id int32
			w  float64
		)
		switch {
		case j == len(b.ids) || i < len(a.ids) && a.ids[i] < b.ids[j]:
			id, w = a.ids[i], a.weights[i]
			i++
		case i == len(a.ids) || b.ids[j] < a.ids[i]:
			id, w = b.ids[j], b.weights[j]
			j++
		default:
			id, w = a.ids[i], a.weights[i]+b.weights[j]
			i++
			j++
		}
		if w != 0 {
			ids = append(ids, id)
			weights = append(weights, w)
		}
	}
	return Vector{ids: ids, weights: weights}
}

// Equal reports whether a and b have identical non-zero components.
func Equal(a, b Vector) bool {
	if len(a.ids) != len(b.ids) {
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] || a.weights[i] != b.weights[i] {
			return false
		}
	}
	return true
}
