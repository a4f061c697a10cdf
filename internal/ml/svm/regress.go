package svm

import (
	"fmt"
	"math"

	"metaopt/internal/ml"
)

// Regression is kernel ridge regression in LS-SVM form, predicting the
// unroll factor as a real value and rounding to the label range. The paper
// lists regression as future work ("which can predict values outside the
// range of the labels"); this implements it on the same solver as the
// classifier.
type Regression struct {
	// Gamma is the regularization weight γ. Zero selects the default.
	Gamma float64

	// Kernel defaults to an RBF with a median-distance bandwidth.
	Kernel Kernel
}

var _ ml.Trainer = (*Regression)(nil)
var _ ml.LOOCVer = (*Regression)(nil)

// RegModel is a trained regressor.
type RegModel struct {
	norm   *ml.Norm
	rows   [][]float64
	kernel Kernel
	alpha  []float64
	bias   float64
}

var _ ml.Classifier = (*RegModel)(nil)

// Train fits the regressor to the labels.
func (t *Regression) Train(d *ml.Dataset) (ml.Classifier, error) {
	sv, err := newSolver(d, t.Gamma, t.Kernel, true)
	if err != nil {
		return nil, err
	}
	alpha, bias := sv.solve(labelTargets(d))
	return &RegModel{norm: sv.norm, rows: sv.rows, kernel: sv.kernel, alpha: alpha, bias: bias}, nil
}

// labelTargets returns the labels as regression targets.
func labelTargets(d *ml.Dataset) []float64 {
	y := make([]float64, d.Len())
	for i, e := range d.Examples {
		y[i] = float64(e.Label)
	}
	return y
}

// Value returns the raw real-valued prediction.
func (m *RegModel) Value(features []float64) float64 {
	q := m.norm.Apply(features)
	s := m.bias
	for i, a := range m.alpha {
		s += a * m.kernel.Eval(q, m.rows[i])
	}
	return s
}

// Predict rounds the regression value into the label range.
func (m *RegModel) Predict(features []float64) int {
	return clampRound(m.Value(features))
}

func clampRound(v float64) int {
	u := int(math.Round(v))
	if u < 1 {
		u = 1
	}
	if u > ml.NumClasses {
		u = ml.NumClasses
	}
	return u
}

// LOOCV computes exact leave-one-out predictions with the same shortcut as
// the classifier: ŷᵢ = yᵢ − αᵢ/(C⁻¹)ᵢᵢ.
func (t *Regression) LOOCV(d *ml.Dataset) ([]int, error) {
	if d.Len() < 3 {
		return nil, fmt.Errorf("svm: regression LOOCV needs at least 3 examples")
	}
	sv, err := newSolver(d, t.Gamma, t.Kernel, false)
	if err != nil {
		return nil, err
	}
	y := labelTargets(d)
	alpha, _ := sv.solve(y)
	diagC := sv.diagC()
	preds := make([]int, len(y))
	for i := range preds {
		if diagC[i] <= 0 {
			preds[i] = clampRound(y[i])
			continue
		}
		preds[i] = clampRound(y[i] - alpha[i]/diagC[i])
	}
	return preds, nil
}
