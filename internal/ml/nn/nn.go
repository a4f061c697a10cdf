// Package nn implements the paper's near-neighbor classifier: examples are
// normalized so every feature weighs equally, a query is answered by the
// most common label among training examples within a fixed radius (0.3 in
// the paper), and queries with no neighbors fall back to the single nearest
// example. A pure 1-NN mode supports the greedy feature-selection
// experiments, which use the single closest point.
package nn

import (
	"fmt"
	"sync"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// DefaultRadius is the neighborhood radius the paper determined
// experimentally.
const DefaultRadius = 0.3

// Trainer configures near-neighbor classification.
type Trainer struct {
	// Radius of the voting neighborhood in normalized feature space.
	// Zero means DefaultRadius.
	Radius float64

	// OneNN uses the single nearest example instead of radius voting.
	OneNN bool
}

// Classifier is a populated near-neighbor database.
type Classifier struct {
	norm       *ml.Norm
	rows       [][]float64
	labels     []int
	names      []string
	benchmarks []string
	radius     float64
	oneNN      bool

	// qbuf pools normalized-query buffers so Predict performs zero heap
	// allocations in steady state.
	qbuf sync.Pool
}

var _ ml.Classifier = (*Classifier)(nil)
var _ ml.LOOCVer = (*Trainer)(nil)
var _ ml.SelectScorer = (*Trainer)(nil)

func (t *Trainer) radius() float64 {
	if t.Radius > 0 {
		return t.Radius
	}
	return DefaultRadius
}

// Train populates the database. Near-neighbor "training" is just
// normalization plus storage.
func (t *Trainer) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !d.HasRows() {
		return nil, fmt.Errorf("nn: training a serving classifier needs materialized feature rows; column-only datasets support LOOCV and selection")
	}
	cols := d.Columns()
	norm := ml.FitNorm(cols)
	c := &Classifier{
		norm:   norm,
		rows:   ml.Rows(norm.ApplyColumns(cols), cols.N),
		radius: t.radius(),
		oneNN:  t.OneNN,
	}
	for _, e := range d.Examples {
		c.labels = append(c.labels, e.Label)
		c.names = append(c.names, e.Name)
		c.benchmarks = append(c.benchmarks, e.Benchmark)
	}
	return c, nil
}

// Predict classifies a raw feature vector.
func (c *Classifier) Predict(features []float64) int {
	bp, _ := c.qbuf.Get().(*[]float64)
	if bp == nil || cap(*bp) < len(features) {
		bp = new([]float64)
		*bp = make([]float64, len(features))
	}
	pred := c.predict(c.norm.ApplyInto(features, (*bp)[:cap(*bp)]), -1)
	c.qbuf.Put(bp)
	return pred
}

// predict classifies a normalized query, optionally excluding one database
// index (for leave-one-out).
func (c *Classifier) predict(q []float64, exclude int) int {
	var v ml.NeighborVote[float64]
	v.Reset(c.radius, c.oneNN)
	for i, row := range c.rows {
		if i != exclude {
			v.Observe(i, linalg.SqDist(q, row), c.labels)
		}
	}
	return v.Finish(c.labels)
}

// Confidence reports the size of the voting neighborhood and the agreement
// of its majority class for a query — the paper's outlier-detection signal.
func (c *Classifier) Confidence(features []float64) (neighbors int, agreement float64) {
	q := c.norm.Apply(features)
	r2 := c.radius * c.radius
	var votes [ml.NumClasses + 1]int
	for i, row := range c.rows {
		if linalg.SqDist(q, row) <= r2 {
			neighbors++
			votes[c.labels[i]]++
		}
	}
	if neighbors == 0 {
		return 0, 0
	}
	max := 0
	for _, v := range votes {
		if v > max {
			max = v
		}
	}
	return neighbors, float64(max) / float64(neighbors)
}

// LOOCV classifies every example against the rest of the database. The
// normalization statistics come from the full dataset, matching how the
// paper's Matlab prototype normalized once before cross-validating. Every
// dataset, in memory or memory-mapped, runs the blocked kernel over its
// columns: working memory is bounded by the block edge, not n².
func (t *Trainer) LOOCV(d *ml.Dataset) ([]int, error) {
	if d.Len() < 2 {
		return nil, fmt.Errorf("nn: LOOCV needs at least 2 examples")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := d.Columns()
	feats := make([]int, cols.Dim)
	for f := range feats {
		feats[f] = f
	}
	preds := make([]int, cols.N)
	blockedLOOCV(cols, ml.FitNorm(cols), feats, t.radius(), t.OneNN, 0, cols.N, newBlockScratch(cols.N), preds)
	return preds, nil
}
