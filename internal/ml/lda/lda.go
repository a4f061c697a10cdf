// Package lda implements linear discriminant analysis, used to project the
// high-dimensional loop feature space onto the plane for the paper's
// Figures 1 and 2 ("to find a 'good' plane onto which to project the data,
// we use the linear discriminant analysis algorithm described in [8]").
package lda

import (
	"fmt"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// Projection maps raw feature vectors onto discriminant directions.
type Projection struct {
	Norm *ml.Norm
	W    *linalg.Matrix // dim × out: columns are discriminant directions
}

// Project fits an LDA projection with the given number of output
// dimensions. It maximizes between-class over within-class scatter by
// solving the generalized eigenproblem Sb·w = λ·Sw·w through the Cholesky
// reduction Sw = L·Lᵀ, M = L⁻¹·Sb·L⁻ᵀ.
func Project(d *ml.Dataset, out int) (*Projection, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	dim := d.Dim()
	if out < 1 || out > dim {
		return nil, fmt.Errorf("lda: %d output dims for %d features", out, dim)
	}
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	ncols := norm.ApplyColumns(cols)
	n := cols.N

	// Class members in row order, and the global mean.
	var members [ml.NumClasses + 1][]int
	classes := 0
	for i, lab := range cols.Labels {
		if len(members[lab]) == 0 {
			classes++
		}
		members[lab] = append(members[lab], i)
	}
	if classes < 2 {
		return nil, fmt.Errorf("lda: need at least 2 classes")
	}
	global := make([]float64, dim)
	for j, col := range ncols {
		for _, v := range col {
			global[j] += v
		}
		global[j] /= float64(n)
	}

	sw := linalg.NewMatrix(dim, dim)
	sb := linalg.NewMatrix(dim, dim)
	diff := make([]float64, dim)
	mean := make([]float64, dim)
	// Classes accumulate in label order so the scatter sums, and with them
	// the projection, are the same floats on every run.
	for _, idx := range members {
		if len(idx) == 0 {
			continue
		}
		for j, col := range ncols {
			mean[j] = 0
			for _, i := range idx {
				mean[j] += col[i]
			}
			mean[j] /= float64(len(idx))
		}
		for _, i := range idx {
			for j, col := range ncols {
				diff[j] = col[i] - mean[j]
			}
			rankOneUpdate(sw, diff, 1)
		}
		for j := range diff {
			diff[j] = mean[j] - global[j]
		}
		rankOneUpdate(sb, diff, float64(len(idx)))
	}
	// Regularize the within-class scatter so it is invertible even with
	// constant features.
	for j := 0; j < dim; j++ {
		sw.Add(j, j, 1e-6*float64(n))
	}

	ch, err := linalg.NewCholesky(sw)
	if err != nil {
		return nil, fmt.Errorf("lda: within-class scatter: %w", err)
	}
	// M = L⁻¹ · Sb · L⁻ᵀ, built column by column.
	tmp := linalg.NewMatrix(dim, dim) // L⁻¹·Sb
	col := make([]float64, dim)
	for c := 0; c < dim; c++ {
		for r := 0; r < dim; r++ {
			col[r] = sb.At(r, c)
		}
		x := ch.SolveLower(col)
		for r := 0; r < dim; r++ {
			tmp.Set(r, c, x[r])
		}
	}
	m := linalg.NewMatrix(dim, dim)
	for r := 0; r < dim; r++ {
		copy(col, tmp.Row(r))
		x := ch.SolveLower(col)
		for c := 0; c < dim; c++ {
			m.Set(r, c, x[c])
		}
	}
	// Symmetrize against numerical drift.
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	_, vecs, err := linalg.EigenSym(m)
	if err != nil {
		return nil, fmt.Errorf("lda: eigen: %w", err)
	}
	// Map eigenvectors u back to discriminants w = L⁻ᵀ·u.
	w := linalg.NewMatrix(dim, out)
	for c := 0; c < out; c++ {
		for r := 0; r < dim; r++ {
			col[r] = vecs.At(r, c)
		}
		x := ch.SolveUpper(col)
		nrm := linalg.Norm(x)
		if nrm == 0 {
			nrm = 1
		}
		for r := 0; r < dim; r++ {
			w.Set(r, c, x[r]/nrm)
		}
	}
	return &Projection{Norm: norm, W: w}, nil
}

// rankOneUpdate adds weight·v·vᵀ into m.
func rankOneUpdate(m *linalg.Matrix, v []float64, weight float64) {
	for i := range v {
		if v[i] == 0 {
			continue
		}
		row := m.Row(i)
		wv := weight * v[i]
		for j := range v {
			row[j] += wv * v[j]
		}
	}
}

// Apply projects a raw feature vector.
func (p *Projection) Apply(features []float64) []float64 {
	q := p.Norm.Apply(features)
	out := make([]float64, p.W.Cols())
	for c := 0; c < p.W.Cols(); c++ {
		var s float64
		for r := 0; r < p.W.Rows(); r++ {
			s += p.W.At(r, c) * q[r]
		}
		out[c] = s
	}
	return out
}

// ApplyAll projects every example, returning one point per example.
func (p *Projection) ApplyAll(d *ml.Dataset) [][]float64 {
	pts := make([][]float64, d.Len())
	for i, e := range d.Examples {
		pts[i] = p.Apply(e.Features)
	}
	return pts
}
