package svm

import (
	"fmt"
	"math"
	"math/rand"

	"metaopt/internal/ml"
)

// SMO trains soft-margin C-SVMs with Platt's sequential minimal
// optimization, combined into a multi-class classifier through output
// codes. It exists as an ablation counterpart to the LS-SVM: the paper's
// toolkit was least-squares, but classical C-SVMs are the textbook variant.
type SMO struct {
	// C is the soft-margin penalty. Zero selects the default.
	C float64

	// Kernel defaults to an RBF with a median-distance bandwidth.
	Kernel Kernel

	// Codes defaults to one-vs-rest over ml.NumClasses.
	Codes Codes

	// Tol and MaxPasses bound the optimization. Zero selects defaults.
	Tol       float64
	MaxPasses int

	// Seed drives SMO's randomized second-choice heuristic.
	Seed int64
}

var _ ml.Trainer = (*SMO)(nil)

type smoBinary struct {
	alpha []float64
	bias  float64
	y     []float64
}

// smoModel is a trained multi-class SMO SVM.
type smoModel struct {
	norm   *ml.Norm
	rows   [][]float64
	kernel Kernel
	codes  Codes
	bits   []smoBinary
}

var _ ml.Classifier = (*smoModel)(nil)

// Train fits one binary C-SVM per output-code bit.
func (t *SMO) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	rows := ml.Rows(norm.ApplyColumns(cols), cols.N)
	c := t.C
	if c <= 0 {
		c = 10
	}
	kernel := t.Kernel
	if kernel == nil {
		kernel = RBF{Sigma: medianSigma(rows)}
	}
	codes := t.Codes
	if codes.NumClasses() == 0 {
		codes = OneVsRest(ml.NumClasses)
	}
	tol := t.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	maxPasses := t.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 5
	}

	n := len(rows)
	// Precompute the kernel matrix once; all bits share it.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(rows[i], rows[j])
			k[i][j] = v
			k[j][i] = v
		}
	}

	m := &smoModel{norm: norm, rows: rows, kernel: kernel, codes: codes}
	rng := rand.New(rand.NewSource(t.Seed + 1))
	for bit := 0; bit < codes.NumBits(); bit++ {
		y := make([]float64, n)
		for i, e := range d.Examples {
			y[i] = codes.Target(e.Label, bit)
		}
		bin, err := smoTrain(k, y, c, tol, maxPasses, rng)
		if err != nil {
			return nil, fmt.Errorf("svm: bit %d: %w", bit, err)
		}
		m.bits = append(m.bits, bin)
	}
	return m, nil
}

// smoTrain is simplified SMO (Platt / Ng's CS229 variant) on a precomputed
// kernel matrix.
func smoTrain(k [][]float64, y []float64, c, tol float64, maxPasses int, rng *rand.Rand) (smoBinary, error) {
	n := len(y)
	alpha := make([]float64, n)
	b := 0.0
	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * k[i][j]
			}
		}
		return s
	}
	passes := 0
	iters := 0
	for passes < maxPasses {
		if iters++; iters > 200 {
			break // converged enough for a heuristic model
		}
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(c, c+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-c)
				hi = math.Min(c, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k[i][j] - k[i][i] - k[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := b - ei - y[i]*(aiNew-ai)*k[i][i] - y[j]*(ajNew-aj)*k[i][j]
			b2 := b - ej - y[i]*(aiNew-ai)*k[i][j] - y[j]*(ajNew-aj)*k[j][j]
			switch {
			case aiNew > 0 && aiNew < c:
				b = b1
			case ajNew > 0 && ajNew < c:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return smoBinary{alpha: alpha, bias: b, y: y}, nil
}

// Predict classifies a raw feature vector.
func (m *smoModel) Predict(features []float64) int {
	q := m.norm.Apply(features)
	kvec := make([]float64, len(m.rows))
	for i, row := range m.rows {
		kvec[i] = m.kernel.Eval(q, row)
	}
	scores := make([]float64, len(m.bits))
	for bi, bin := range m.bits {
		s := bin.bias
		for i, a := range bin.alpha {
			if a != 0 {
				s += a * bin.y[i] * kvec[i]
			}
		}
		scores[bi] = s
	}
	return m.codes.Decode(scores)
}
