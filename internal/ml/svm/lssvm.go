package svm

import (
	"fmt"
	"math"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// LSSVM trains least-squares support vector machines — the formulation of
// the LS-SVMlab toolkit the paper used. Binary machines solve
//
//	(K + I/γ)·a + b·1 = y,   1ᵀa = 0
//
// and classify by sign(Σᵢ aᵢ·K(xᵢ,x) + b). Multi-class problems use output
// codes; because the system matrix is label-independent, all bits share one
// Cholesky factorization, and the exact leave-one-out shortcut
// ŷᵢ = yᵢ − aᵢ/(C⁻¹)ᵢᵢ makes full LOOCV over thousands of loops cheap.
type LSSVM struct {
	// Gamma is the regularization weight γ (larger = tighter fit).
	// Zero selects the default.
	Gamma float64

	// Kernel defaults to an RBF with a median-distance bandwidth.
	Kernel Kernel

	// Codes defaults to one-vs-rest over ml.NumClasses.
	Codes Codes
}

// DefaultGamma is the regularization used when none is configured.
const DefaultGamma = 50

var _ ml.Trainer = (*LSSVM)(nil)
var _ ml.LOOCVer = (*LSSVM)(nil)

// Model is a trained multi-class LS-SVM.
type Model struct {
	norm   *ml.Norm
	rows   [][]float64
	kernel Kernel
	codes  Codes
	alpha  [][]float64 // [bit][example]
	bias   []float64   // [bit]
}

var _ ml.Classifier = (*Model)(nil)

// solver is one factored LS-SVM system A = K + I/γ over a dataset's
// normalized columns, shared by the classifier and the regressor, in
// training and in exact LOOCV.
type solver struct {
	norm   *ml.Norm
	rows   [][]float64 // normalized rows; nil unless a model stores them or the kernel needs them
	kernel Kernel
	ch     *linalg.Cholesky
	u      []float64 // A⁻¹·1
	s      float64   // 1ᵀu
}

// newSolver resolves γ and the kernel and factors the system. An RBF kernel
// (including the default, whose median-distance bandwidth reads the same
// matrix) gets its Gram matrix from the pairwise squared distances of the
// normalized columns. A custom non-RBF kernel evaluates Eval over
// normalized rows, the only input that interface takes. model asks for the
// rows a trained model stores, so it refuses column-only datasets: a
// serving model is built from materialized rows.
func newSolver(d *ml.Dataset, gamma float64, kernel Kernel, model bool) (*solver, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if model && !d.HasRows() {
		return nil, fmt.Errorf("svm: training a serving model needs materialized feature rows; column-only datasets support LOOCV")
	}
	if gamma <= 0 {
		gamma = DefaultGamma
	}
	cols := d.Columns()
	n := cols.N
	sv := &solver{norm: ml.FitNorm(cols), kernel: kernel}
	ncols := sv.norm.ApplyColumns(cols)
	if model {
		sv.rows = ml.Rows(ncols, n)
	}
	var dist []float64
	if _, isRBF := kernel.(RBF); kernel == nil || isRBF {
		dist = linalg.PairwiseSqDistColsInto(ncols, n, nil)
		if kernel == nil {
			sv.kernel = RBF{Sigma: medianSigmaDist(dist, n)}
		}
	} else if sv.rows == nil {
		sv.rows = ml.Rows(ncols, n)
	}
	ch, err := system(n, sv.rows, sv.kernel, gamma, dist)
	if err != nil {
		return nil, err
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	sv.ch, sv.u = ch, ch.Solve(ones)
	for _, x := range sv.u {
		sv.s += x
	}
	return sv, nil
}

// solve computes (a, b) for one output-code bit or regression target y:
// v = A⁻¹·y, b = 1ᵀv/s, a = v − b·u.
func (sv *solver) solve(y []float64) (alpha []float64, bias float64) {
	v := sv.ch.Solve(y)
	var sum float64
	for _, x := range v {
		sum += x
	}
	bias = sum / sv.s
	alpha = make([]float64, len(y))
	for i := range alpha {
		alpha[i] = v[i] - bias*sv.u[i]
	}
	return alpha, bias
}

// diagC returns (C⁻¹)ᵢᵢ = (A⁻¹)ᵢᵢ − uᵢ²/s for every example, where C is the
// full bordered KKT matrix: the denominators of the exact leave-one-out
// shortcut ŷᵢ = yᵢ − aᵢ/(C⁻¹)ᵢᵢ.
func (sv *solver) diagC() []float64 {
	diag := sv.ch.InverseDiagonalFast()
	for i := range diag {
		diag[i] -= sv.u[i] * sv.u[i] / sv.s
	}
	return diag
}

func (t *LSSVM) codes() Codes {
	if t.Codes.NumClasses() == 0 {
		return OneVsRest(ml.NumClasses)
	}
	return t.Codes
}

// system builds and factors the shared matrix A = K + I/γ. For RBF kernels
// dist carries the pairwise squared distances, so the Gram matrix is an
// element-wise exp over it: the values match per-pair Eval calls exactly
// (same SqDist accumulation, same divisor expression) and rows may be nil.
func system(n int, rows [][]float64, kernel Kernel, gamma float64, dist []float64) (*linalg.Cholesky, error) {
	a := linalg.NewMatrix(n, n)
	if rbf, ok := kernel.(RBF); ok && dist != nil {
		denom := 2 * rbf.Sigma * rbf.Sigma
		for i := 0; i < n; i++ {
			arow := a.Row(i)
			drow := dist[i*n : (i+1)*n]
			for j := range arow {
				arow[j] = math.Exp(-drow[j] / denom)
			}
			arow[i] += 1 / gamma
		}
	} else {
		for i := 0; i < n; i++ {
			a.Set(i, i, kernel.Eval(rows[i], rows[i])+1/gamma)
			for j := 0; j < i; j++ {
				v := kernel.Eval(rows[i], rows[j])
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
	}
	ch, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("svm: kernel system not positive definite: %w", err)
	}
	return ch, nil
}

// Train fits one binary machine per output-code bit.
func (t *LSSVM) Train(d *ml.Dataset) (ml.Classifier, error) {
	sv, err := newSolver(d, t.Gamma, t.Kernel, true)
	if err != nil {
		return nil, err
	}
	codes := t.codes()
	m := &Model{norm: sv.norm, rows: sv.rows, kernel: sv.kernel, codes: codes}
	y := make([]float64, d.Len())
	for bit := 0; bit < codes.NumBits(); bit++ {
		for i, e := range d.Examples {
			y[i] = codes.Target(e.Label, bit)
		}
		alpha, bias := sv.solve(y)
		m.alpha = append(m.alpha, alpha)
		m.bias = append(m.bias, bias)
	}
	return m, nil
}

// Predict classifies a raw feature vector.
func (m *Model) Predict(features []float64) int {
	q := m.norm.Apply(features)
	scores := make([]float64, len(m.alpha))
	k := make([]float64, len(m.rows))
	for i, row := range m.rows {
		k[i] = m.kernel.Eval(q, row)
	}
	for bit := range m.alpha {
		s := m.bias[bit]
		for i, a := range m.alpha[bit] {
			s += a * k[i]
		}
		scores[bit] = s
	}
	return m.codes.Decode(scores)
}

// Scores returns the per-bit decision values for a raw feature vector
// (used by the Figure 2 visualization).
func (m *Model) Scores(features []float64) []float64 {
	q := m.norm.Apply(features)
	scores := make([]float64, len(m.alpha))
	for bit := range m.alpha {
		s := m.bias[bit]
		for i, a := range m.alpha[bit] {
			s += a * m.kernel.Eval(q, m.rows[i])
		}
		scores[bit] = s
	}
	return scores
}

// LOOCV computes exact leave-one-out predictions: for each bit,
// ŷᵢ = yᵢ − aᵢ/(C⁻¹)ᵢᵢ. One factorization serves every fold and every bit.
func (t *LSSVM) LOOCV(d *ml.Dataset) ([]int, error) {
	if d.Len() < 3 {
		return nil, fmt.Errorf("svm: LOOCV needs at least 3 examples")
	}
	sv, err := newSolver(d, t.Gamma, t.Kernel, false)
	if err != nil {
		return nil, err
	}
	codes := t.codes()
	n := d.Len()
	diagC := sv.diagC()
	looScores := make([][]float64, n)
	for i := range looScores {
		looScores[i] = make([]float64, codes.NumBits())
	}
	y := make([]float64, n)
	for bit := 0; bit < codes.NumBits(); bit++ {
		for i, e := range d.Examples {
			y[i] = codes.Target(e.Label, bit)
		}
		alpha, _ := sv.solve(y)
		for i := range alpha {
			if diagC[i] <= 0 {
				// Numerically degenerate fold: fall back to the training
				// residual (no correction).
				looScores[i][bit] = y[i]
				continue
			}
			looScores[i][bit] = y[i] - alpha[i]/diagC[i]
		}
	}
	preds := make([]int, n)
	for i := range preds {
		preds[i] = codes.Decode(looScores[i])
	}
	return preds, nil
}
