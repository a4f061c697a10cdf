package linalg

import (
	"math/rand"
	"testing"
)

// TestPairwiseMatchesSqDist pins the tiled pairwise kernel entry by entry to
// per-pair SqDist over the equivalent rows, at sizes below, at and across
// the tile edge, reusing one output buffer across sizes.
func TestPairwiseMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 6
	var out []float64
	for _, n := range []int{1, 31, 32, 33, 70} {
		cols := make([][]float64, dim)
		for j := range cols {
			cols[j] = make([]float64, n)
			for i := range cols[j] {
				cols[j][i] = rng.Float64()
			}
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = cols[j][i]
			}
		}
		out = PairwiseSqDistColsInto(cols, n, out)
		if len(out) != n*n {
			t.Fatalf("n=%d: %d entries", n, len(out))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if want := SqDist(rows[i], rows[j]); out[i*n+j] != want {
					t.Fatalf("n=%d: dist[%d][%d] = %v, SqDist = %v", n, i, j, out[i*n+j], want)
				}
			}
		}
	}
}
