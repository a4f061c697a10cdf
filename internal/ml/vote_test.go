package ml_test

import (
	"testing"

	"metaopt/internal/ml"
)

// vote runs one query through the vote rule: exemplar j has label
// labels[j] at squared distance d2s[j].
func vote[F float32 | float64](radius float64, oneNN bool, d2s []F, labels []int) int {
	var v ml.NeighborVote[F]
	v.Reset(radius, oneNN)
	for j, d2 := range d2s {
		v.Observe(j, d2, labels)
	}
	return v.Finish(labels)
}

// TestNeighborVoteRule pins the paper's rule case by case, for both float
// widths: majority within the radius, ties to the class with the closer
// exemplar and then to the lower label, the nearest exemplar (first on
// equal distances) for an empty neighborhood and in 1-NN mode.
func TestNeighborVoteRule(t *testing.T) {
	cases := []struct {
		name   string
		radius float64
		oneNN  bool
		d2s    []float64
		labels []int
		want   int
	}{
		{"majority wins over the nearest", 1, false, []float64{0.01, 0.5, 0.6, 4}, []int{3, 5, 5, 3}, 5},
		{"tie goes to the closer exemplar", 1, false, []float64{0.5, 0.2, 0.6, 0.3}, []int{2, 7, 2, 7}, 7},
		{"exact tie goes to the lower label", 1, false, []float64{0.4, 0.4}, []int{6, 4}, 4},
		{"radius is inclusive", 0.5, false, []float64{0.25, 0.3, 0.3}, []int{1, 8, 8}, 1},
		{"empty neighborhood falls back to the nearest", 0.1, false, []float64{0.9, 0.5, 0.7}, []int{1, 2, 3}, 2},
		{"nearest keeps the first on equal distances", 0.1, false, []float64{0.9, 0.5, 0.5}, []int{1, 2, 3}, 2},
		{"1-NN ignores the vote", 1, true, []float64{0.3, 0.2, 0.25}, []int{4, 6, 4}, 6},
		{"no comparable exemplar answers the first", 1, true, nil, []int{5}, 5},
	}
	for _, c := range cases {
		if got := vote(c.radius, c.oneNN, c.d2s, c.labels); got != c.want {
			t.Errorf("%s (float64): %d, want %d", c.name, got, c.want)
		}
		d2s := make([]float32, len(c.d2s))
		for i, d := range c.d2s {
			d2s[i] = float32(d)
		}
		if got := vote(c.radius, c.oneNN, d2s, c.labels); got != c.want {
			t.Errorf("%s (float32): %d, want %d", c.name, got, c.want)
		}
	}
}
