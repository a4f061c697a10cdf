package tree

import (
	"fmt"
	"math"

	"metaopt/internal/ml"
)

// Boost trains an AdaBoost.SAMME ensemble of shallow CART trees — the
// multi-class generalization of the "boosted decision tree" learner of
// Monsifrot et al. that the paper's related work discusses.
type Boost struct {
	// Rounds is the number of boosting rounds (0 = default 25).
	Rounds int
	// MaxDepth bounds each weak tree (0 = default 4).
	MaxDepth int
	// MinLeaf is the minimum examples per leaf (0 = default 3).
	MinLeaf int
}

var _ ml.Trainer = (*Boost)(nil)

// Ensemble is a trained boosted-tree classifier.
type Ensemble struct {
	Trees  []*Tree   `json:"trees"`
	Weight []float64 `json:"weights"`
}

var _ ml.Classifier = (*Ensemble)(nil)

// Train runs AdaBoost.SAMME: each round fits a weak tree on reweighted
// examples, upweighting what the ensemble still gets wrong.
func (b *Boost) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !d.HasRows() {
		// The rounds score the weak trees on feature rows.
		return nil, fmt.Errorf("tree: boosting needs materialized feature rows")
	}
	rounds := b.Rounds
	if rounds <= 0 {
		rounds = 25
	}
	maxDepth := b.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 4
	}
	weak := &Trainer{MaxDepth: maxDepth, MinLeaf: b.MinLeaf}
	cols := d.Columns()

	n := d.Len()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / float64(n)
	}
	const k = float64(ml.NumClasses)
	ens := &Ensemble{}
	for round := 0; round < rounds; round++ {
		t, err := weak.trainWeighted(cols, w)
		if err != nil {
			return nil, fmt.Errorf("tree: boosting round %d: %w", round, err)
		}
		// Weighted error of this weak learner.
		var errW, total float64
		miss := make([]bool, n)
		for i, e := range d.Examples {
			total += w[i]
			if t.Predict(e.Features) != e.Label {
				errW += w[i]
				miss[i] = true
			}
		}
		if total <= 0 {
			break
		}
		eps := errW / total
		if eps <= 0 {
			// Perfect weak learner: it alone decides.
			ens.Trees = append(ens.Trees, t)
			ens.Weight = append(ens.Weight, 10)
			break
		}
		// SAMME requires better-than-chance for K classes.
		if eps >= 1-1/k {
			break
		}
		alpha := math.Log((1-eps)/eps) + math.Log(k-1)
		ens.Trees = append(ens.Trees, t)
		ens.Weight = append(ens.Weight, alpha)
		// Reweight and renormalize.
		var sum float64
		for i := range w {
			if miss[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(ens.Trees) == 0 {
		// Fall back to one full-depth tree.
		t, err := weak.trainWeighted(cols, w)
		if err != nil {
			return nil, err
		}
		ens.Trees = append(ens.Trees, t)
		ens.Weight = append(ens.Weight, 1)
	}
	return ens, nil
}

// Predict takes the weighted vote of the ensemble.
func (e *Ensemble) Predict(features []float64) int {
	var votes [ml.NumClasses + 1]float64
	for i, t := range e.Trees {
		votes[t.Predict(features)] += e.Weight[i]
	}
	best := 1
	for lab := 2; lab <= ml.NumClasses; lab++ {
		if votes[lab] > votes[best] {
			best = lab
		}
	}
	return best
}
