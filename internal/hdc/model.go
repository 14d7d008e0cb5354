package hdc

import (
	"fmt"
	"math"

	"fhdnn/internal/tensor"
)

// Model is the HD classifier: one prototype hypervector per class,
// C = [c_1; ...; c_K] (paper Sec. 3.4.1). Prototypes are integer-valued in
// exact arithmetic (sums of +-1 encodings) but stored as float32 so channel
// perturbations can be applied directly.
type Model struct {
	K, D       int
	Prototypes *tensor.Tensor // K x D
}

// NewModel allocates a zeroed model for k classes of d-dimensional
// hypervectors.
func NewModel(k, d int) *Model {
	if k <= 0 || d <= 0 {
		panic(fmt.Sprintf("hdc: invalid model dims k=%d d=%d", k, d))
	}
	return &Model{K: k, D: d, Prototypes: tensor.New(k, d)}
}

// Clone returns a deep copy.
func (m *Model) Clone() *Model {
	return &Model{K: m.K, D: m.D, Prototypes: m.Prototypes.Clone()}
}

// Class returns the prototype row for class k (shared storage).
func (m *Model) Class(k int) []float32 {
	return m.Prototypes.Data()[k*m.D : (k+1)*m.D]
}

// BundleInto adds hypervector h into class k's prototype (one-shot
// learning: c_k = sum_i h_i^k).
func (m *Model) BundleInto(k int, h []float32) {
	Bundle(m.Class(k), h)
}

// Predict returns the class whose prototype has the highest cosine
// similarity with h, along with that similarity; the lowest class index
// wins a tie. It costs K+1 passes over d (Norm(h) once, then one fused
// pass per prototype) and does not allocate; every similarity is bit for
// bit Cosine(m.Class(k), h).
func (m *Model) Predict(h []float32) (class int, sim float64) {
	nh := m.queryNorm(h)
	best, bi := -2.0, 0
	for k := 0; k < m.K; k++ {
		s := m.cosine(k, h, nh)
		if s > best {
			best, bi = s, k
		}
	}
	return bi, best
}

// Similarities returns the cosine similarity of h against every prototype,
// each bit for bit Cosine(m.Class(k), h), at Predict's cost.
func (m *Model) Similarities(h []float32) []float64 {
	nh := m.queryNorm(h)
	out := make([]float64, m.K)
	for k := range out {
		out[k] = m.cosine(k, h, nh)
	}
	return out
}

// queryNorm checks that h has the model's dimension and returns Norm(h).
func (m *Model) queryNorm(h []float32) float64 {
	if len(h) != m.D {
		panic(fmt.Sprintf("hdc: query length %d, model dimension %d", len(h), m.D))
	}
	return Norm(h)
}

// cosine is Cosine(m.Class(k), h) given nh = Norm(h). One loop sums the
// prototype's squares and its dot product with h in two float64
// accumulators, each in the index order Norm and Dot use, so the result
// has the same bits.
func (m *Model) cosine(k int, h []float32, nh float64) float64 {
	if nh == 0 {
		return 0
	}
	c := m.Class(k)
	h = h[:len(c)]
	var ss, dot float64
	for i, v := range c {
		x := float64(v)
		ss += x * x
		dot += x * float64(h[i])
	}
	na := math.Sqrt(ss)
	if na == 0 {
		return 0
	}
	return dot / (na * nh)
}

// OneShotTrain bundles every encoded example into its class prototype.
func (m *Model) OneShotTrain(encoded *tensor.Tensor, labels []int) {
	n := encoded.Dim(0)
	if len(labels) != n {
		panic("hdc: OneShotTrain labels length mismatch")
	}
	for s := 0; s < n; s++ {
		m.BundleInto(labels[s], encoded.Data()[s*m.D:(s+1)*m.D])
	}
}

// RefineEpoch performs one pass of iterative refinement (paper Sec. 3.4.1):
// for each mispredicted example, the hypervector is added to the correct
// prototype and subtracted from the mispredicted one. Returns the number of
// mispredictions.
func (m *Model) RefineEpoch(encoded *tensor.Tensor, labels []int) int {
	n := encoded.Dim(0)
	if len(labels) != n {
		panic("hdc: RefineEpoch labels length mismatch")
	}
	wrong := 0
	for s := 0; s < n; s++ {
		h := encoded.Data()[s*m.D : (s+1)*m.D]
		pred, _ := m.Predict(h)
		if pred != labels[s] {
			wrong++
			correct := m.Class(labels[s])
			bad := m.Class(pred)
			for i, v := range h {
				correct[i] += v
				bad[i] -= v
			}
		}
	}
	return wrong
}

// RefineEpochAdaptive performs one pass of similarity-weighted refinement
// (the OnlineHD scheme of Hernandez-Cano et al., DATE'21, a natural
// extension of the paper's fixed-step rule): every example updates the
// prototypes with a step proportional to how wrong the model was,
//
//	c_correct += lr * (1 - sim_correct) * h
//	c_pred    -= lr * (1 - sim_pred)    * h   (only when mispredicted)
//
// which converges faster than the fixed rule on hard data and never
// overshoots on easy data. Returns the number of mispredictions.
func (m *Model) RefineEpochAdaptive(encoded *tensor.Tensor, labels []int, lr float32) int {
	n := encoded.Dim(0)
	if len(labels) != n {
		panic("hdc: RefineEpochAdaptive labels length mismatch")
	}
	wrong := 0
	for s := 0; s < n; s++ {
		h := encoded.Data()[s*m.D : (s+1)*m.D]
		sims := m.Similarities(h)
		pred, best := 0, sims[0]
		for k, sim := range sims {
			if sim > best {
				pred, best = k, sim
			}
		}
		y := labels[s]
		if pred == y {
			continue
		}
		wrong++
		up := lr * float32(1-sims[y])
		down := lr * float32(1-sims[pred])
		correct := m.Class(y)
		bad := m.Class(pred)
		for i, v := range h {
			correct[i] += up * v
			bad[i] -= down * v
		}
	}
	return wrong
}

// Accuracy classifies every row of encoded and returns the fraction
// matching labels.
func (m *Model) Accuracy(encoded *tensor.Tensor, labels []int) float64 {
	n := encoded.Dim(0)
	correct := 0
	for s := 0; s < n; s++ {
		pred, _ := m.Predict(encoded.Data()[s*m.D : (s+1)*m.D])
		if pred == labels[s] {
			correct++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

// Add accumulates another model's prototypes into m (federated bundling,
// paper Eq. 1).
func (m *Model) Add(o *Model) {
	if m.K != o.K || m.D != o.D {
		panic("hdc: Add model shape mismatch")
	}
	m.Prototypes.AddInPlace(o.Prototypes)
}

// Scale multiplies all prototypes by s (used for averaging variants).
func (m *Model) Scale(s float32) { m.Prototypes.Scale(s) }

// Flat returns the model parameters as one flat vector (the transmitted
// update). The slice shares storage with the model.
func (m *Model) Flat() []float32 { return m.Prototypes.Data() }

// SetFlat overwrites the model parameters from a flat vector.
func (m *Model) SetFlat(flat []float32) {
	if len(flat) != m.K*m.D {
		panic("hdc: SetFlat length mismatch")
	}
	copy(m.Prototypes.Data(), flat)
}

// NumParams returns K*D.
func (m *Model) NumParams() int { return m.K * m.D }

// UpdateSizeBytes returns the size of one transmitted model update at the
// given bytes-per-parameter (4 for float32/int32 representations).
func (m *Model) UpdateSizeBytes(bytesPerParam int) int {
	return m.NumParams() * bytesPerParam
}
