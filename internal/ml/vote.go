package ml

import "math"

// NeighborVote accumulates one query's near-neighbor decision, exemplar by
// exemplar: the radius votes per class, each class's closest exemplar, and
// the single nearest exemplar. It is the one implementation of the paper's
// rule, shared by training-time LOOCV and selection, the interpreted
// classifier and the compiled serve path (F = float32 for the batch path).
//
// The rule: the class with the most exemplars within the radius wins; equal
// votes go to the class whose closest exemplar is nearer (the lower label on
// an exact tie). With an empty neighborhood, or in 1-NN mode, the nearest
// exemplar's label wins, the first one observed on equal distances.
type NeighborVote[F float32 | float64] struct {
	r2       F // squared voting radius; −Inf in 1-NN mode
	oneNN    bool
	votes    [NumClasses + 1]int
	closest  [NumClasses + 1]F
	found    int
	nearest  int // table index of the nearest exemplar so far, −1 before any
	nearestD F
}

// Reset starts a new query with the given voting radius, or in 1-NN mode.
func (v *NeighborVote[F]) Reset(radius float64, oneNN bool) {
	inf := F(math.Inf(1))
	*v = NeighborVote[F]{r2: F(radius * radius), oneNN: oneNN, nearest: -1, nearestD: inf}
	if oneNN {
		v.r2 = -inf // no exemplar is in the neighborhood: skip the vote
	}
	for i := range v.closest {
		v.closest[i] = inf
	}
}

// Observe folds in exemplar j of the table whose labels are given, at
// squared distance d2. Exemplars must be observed in table order for the
// first-index nearest rule to hold.
func (v *NeighborVote[F]) Observe(j int, d2 F, labels []int) {
	if d2 < v.nearestD {
		v.nearest, v.nearestD = j, d2
	}
	if d2 > v.r2 {
		return
	}
	label := labels[j]
	v.found++
	v.votes[label]++
	if d2 < v.closest[label] {
		v.closest[label] = d2
	}
}

// Finish resolves the decision over the same labels. With no exemplar at a
// comparable distance (an empty table or NaN distances) the nearest is the
// first exemplar.
func (v *NeighborVote[F]) Finish(labels []int) int {
	if v.oneNN || v.found == 0 {
		return labels[max(v.nearest, 0)]
	}
	best := 0
	for label := 1; label <= NumClasses; label++ {
		if v.votes[label] == 0 {
			continue
		}
		switch {
		case best == 0, v.votes[label] > v.votes[best]:
			best = label
		case v.votes[label] == v.votes[best] && v.closest[label] < v.closest[best]:
			best = label
		}
	}
	return best
}
