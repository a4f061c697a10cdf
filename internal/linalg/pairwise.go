package linalg

// pairTile is the blocking factor for the pairwise kernels: a tile of rows
// (tile × dim floats) stays resident in L1 while it is paired against each
// row of the opposite tile.
const pairTile = 32

// PairwiseSqDistColsInto fills out with the n×n matrix of squared Euclidean
// distances of the dataset whose features are the given columns
// (cols[j][i] = feature j of example i), and returns it (out is grown when
// too small). For each pair of pairTile-row tiles both tiles are gathered
// row-major into L1-sized buffers and every entry is one SqDist call, so
// each distance is exactly the value SqDist gives for the two rows; the
// mirrored lower triangle is exact because (a−b)² and (b−a)² are the same
// float.
func PairwiseSqDistColsInto(cols [][]float64, n int, out []float64) []float64 {
	if cap(out) < n*n {
		out = make([]float64, n*n)
	} else {
		out = out[:n*n]
	}
	dim := len(cols)
	ti := make([]float64, pairTile*dim)
	tj := make([]float64, pairTile*dim)
	gather := func(dst []float64, lo, hi int) {
		for f, col := range cols {
			for i, v := range col[lo:hi] {
				dst[i*dim+f] = v
			}
		}
	}
	for ib := 0; ib < n; ib += pairTile {
		ie := min(ib+pairTile, n)
		gather(ti, ib, ie)
		for jb := ib; jb < n; jb += pairTile {
			je := min(jb+pairTile, n)
			gather(tj, jb, je)
			for i := ib; i < ie; i++ {
				ri := ti[(i-ib)*dim : (i-ib+1)*dim]
				js := jb
				if i >= js {
					out[i*n+i] = 0
					js = i + 1
				}
				for j := js; j < je; j++ {
					d := SqDist(ri, tj[(j-jb)*dim:(j-jb+1)*dim])
					out[i*n+j] = d
					out[j*n+i] = d
				}
			}
		}
	}
	return out
}

// AddSqColumn adds the single-feature squared-distance contribution of col
// into the n×n matrix dst: dst[i,j] += (col[i]−col[j])². With squared
// Euclidean distance additive across features, repeated calls build the
// distance matrix of a growing feature set in the order the features were
// added — the same left-to-right accumulation SqDist performs over the
// concatenated vector.
func AddSqColumn(dst []float64, col []float64) {
	n := len(col)
	for ib := 0; ib < n; ib += pairTile {
		ie := min(ib+pairTile, n)
		for jb := ib; jb < n; jb += pairTile {
			je := min(jb+pairTile, n)
			for i := ib; i < ie; i++ {
				ci := col[i]
				js := jb
				if i >= js {
					js = i + 1
				}
				for j := js; j < je; j++ {
					d := ci - col[j]
					sq := d * d
					dst[i*n+j] += sq
					dst[j*n+i] += sq
				}
			}
		}
	}
}
