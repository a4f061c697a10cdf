package tree

import (
	"metaopt/internal/ml"
)

// Leave-one-out folds over one dataset differ only by the excluded row, so
// the expensive part of presorted training — sorting every feature column —
// can be done once on the full dataset. Each fold then derives its sorted
// orders by copying the full order minus the excluded member (O(n·dim)
// instead of O(n·log n·dim)), keeping original row ids so the column and
// label arrays are shared read-only across all folds and workers.
//
// This is wired through ml.FoldTrainer: ml.LOOCV still runs every fold
// through the worker pool (the session only removes redundant per-fold
// setup), and each fold's tree is identical to Train on that fold's own
// dataset — the full order restricted to the fold members is a valid
// sorted order of the fold, and split choice does not depend on tie order.

var _ ml.FoldTrainer = (*Trainer)(nil)

// foldFrame is the shared, read-only per-dataset state: feature columns,
// labels, full-dataset sorted orders, and uniform weights.
type foldFrame struct {
	n, dim int
	cols   [][]float64
	labels []int32
	sorted [][]int32
	ones   []float64
}

// foldSession trains per-fold trees against a shared frame; each worker
// owns one builder.
type foldSession struct {
	fr       *foldFrame
	builders []builder
	maxDepth int
	minLeaf  int
}

// BeginFolds presorts the full dataset once and hands out a session whose
// TrainWithout derives each fold from the shared orders.
func (t *Trainer) BeginFolds(d *ml.Dataset, workers int) (ml.FoldSession, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := d.Columns()
	n, dim := cols.N, cols.Dim
	fr := &foldFrame{
		n:      n,
		dim:    dim,
		cols:   make([][]float64, dim),
		labels: make([]int32, n),
		sorted: make([][]int32, dim),
		ones:   make([]float64, n),
	}
	for i, lab := range cols.Labels {
		fr.labels[i] = int32(lab)
		fr.ones[i] = 1
	}
	for f := 0; f < dim; f++ {
		col := cols.Feature(f, nil)
		ord := make([]int32, n)
		for i := range ord {
			ord[i] = int32(i)
		}
		sortOrd(col, ord)
		fr.cols[f] = col
		fr.sorted[f] = ord
	}
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 12
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 3
	}
	if workers < 1 {
		workers = 1
	}
	return &foldSession{
		fr:       fr,
		builders: make([]builder, workers),
		maxDepth: maxDepth,
		minLeaf:  minLeaf,
	}, nil
}

// TrainWithout trains a tree on the frame's dataset minus example i.
func (s *foldSession) TrainWithout(worker, i int) (ml.Classifier, error) {
	b := &s.builders[worker]
	b.initFold(s.fr, int32(i))
	root := b.grow(s.fr.ones, s.maxDepth, s.minLeaf)
	return &Tree{Root: root}, nil
}

// initFold points the builder at the frame's shared columns and labels and
// copies each feature's full sorted order minus the excluded member. Fold
// builders are never pooled: their cols/labels alias the frame.
func (b *builder) initFold(fr *foldFrame, exclude int32) {
	n := fr.n - 1
	b.n, b.dim = n, fr.dim
	b.cols, b.labels = fr.cols, fr.labels
	b.pn, b.pdim = 0, 0 // shared cols: pristine cache no longer valid
	if cap(b.tmp) < n {
		b.tmp = make([]int32, n)
	} else {
		b.tmp = b.tmp[:n]
	}
	if cap(b.ord) < fr.dim {
		b.ord = make([][]int32, fr.dim)
	} else {
		b.ord = b.ord[:fr.dim]
	}
	for f := 0; f < fr.dim; f++ {
		if cap(b.ord[f]) < n {
			b.ord[f] = make([]int32, n)
		} else {
			b.ord[f] = b.ord[f][:n]
		}
		dst := b.ord[f]
		k := 0
		for _, m := range fr.sorted[f] {
			if m != exclude {
				dst[k] = m
				k++
			}
		}
	}
}
