package main

import (
	"math"
	"sort"
	"time"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// Kernel bounds, after Shivam et al. (arXiv:1902.00603): each numeric
// kernel's achieved rate is reported against a bound measured on the same
// box when the traced run starts. Flops and bytes are computed from operand
// sizes, not read from hardware counters.

// peakGflops measures the box's scalar float64 multiply-add rate with
// eight independent accumulator chains (Go does not vectorize, so this is
// the rate compiled Go kernels can reach). Best of five ~20ms trials.
func peakGflops() float64 {
	const n = 1 << 21
	best := 0.0
	for trial := 0; trial < 5; trial++ {
		a := [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
		const m, c = 0.999999, 1e-9
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a[0] = a[0]*m + c
			a[1] = a[1]*m + c
			a[2] = a[2]*m + c
			a[3] = a[3]*m + c
			a[4] = a[4]*m + c
			a[5] = a[5]*m + c
			a[6] = a[6]*m + c
			a[7] = a[7]*m + c
		}
		el := time.Since(t0).Seconds()
		sink += a[0] + a[1] + a[2] + a[3] + a[4] + a[5] + a[6] + a[7]
		if r := 16 * n / el / 1e9; r > best {
			best = r
		}
	}
	return best
}

// sink keeps the compiler from deleting measured loops.
var sink float64

// bandwidthGBs measures the read+write rate of copying a buffer of the
// given size, which sits in whichever cache level that size fits: the
// bandwidth a kernel with that working set can get. Best of five.
func bandwidthGBs(bytes int) float64 {
	n := bytes / 8
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	reps := max(1, (32<<20)/bytes)
	best := 0.0
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			copy(dst, src)
		}
		el := time.Since(t0).Seconds()
		sink += dst[n-1]
		if r := float64(2*bytes*reps) / el / 1e9; r > best {
			best = r
		}
	}
	return best
}

// medianCall times fn repeatedly for at least 50ms and returns the median
// per-call time.
func medianCall(fn func()) time.Duration {
	var ts []time.Duration
	start := time.Now()
	for len(ts) < 5 || time.Since(start) < 50*time.Millisecond {
		t0 := time.Now()
		fn()
		ts = append(ts, time.Since(t0))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[len(ts)/2]
}

// kernelBounds measures the pairwise-distance kernel and the LS-SVM Gram
// build and solve on the learn workload's selected dataset, and reports
// each against the measured bound.
func kernelBounds(d *ml.Dataset) (map[string]float64, error) {
	n, dim := d.Len(), len(d.Examples[0].Features)
	cols := make([][]float64, dim)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i, e := range d.Examples {
			cols[j][i] = e.Features[j]
		}
	}
	peak := peakGflops()

	// Pairwise squared distances: per feature and pair i<j one subtract,
	// one multiply and two adds (the result is mirrored); bytes are the
	// columns read once plus both mirrored output cells read and written.
	var dist []float64
	tp := medianCall(func() { dist = linalg.PairwiseSqDistColsInto(cols, n, dist) })
	pairs := float64(n*(n-1)) / 2
	pFlops := 4 * float64(dim) * pairs
	pBytes := float64(dim) * (8*float64(n) + 32*pairs)
	pRate := pFlops / tp.Seconds() / 1e9
	bw := bandwidthGBs(8 * n * n)
	pBound := math.Min(peak, bw*pFlops/pBytes)

	// Gram build and solve: K = exp(−D/mean(D)) + I (one multiply and
	// one exp per cell, exp counted as one flop), then a Cholesky solve:
	// n³/3 for the factorization plus 2n² for the two triangular solves.
	var scale float64
	for _, v := range dist {
		scale += v
	}
	inv := float64(n*n) / scale
	y := make([]float64, n)
	for i, e := range d.Examples {
		y[i] = float64(e.Label)
	}
	k := linalg.NewMatrix(n, n)
	var solveErr error
	tg := medianCall(func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := math.Exp(-dist[i*n+j] * inv)
				if i == j {
					v++
				}
				k.Set(i, j, v)
			}
		}
		_, solveErr = linalg.SolvePD(k, y)
	})
	if solveErr != nil {
		return nil, solveErr
	}
	nf := float64(n)
	gFlops := 2*nf*nf + nf*nf*nf/3 + 2*nf*nf
	return map[string]float64{
		"linalg.pairwise_gflops":    pRate,
		"linalg.pairwise_bound_pct": 100 * pRate / pBound,
		"linalg.gram_solve_gflops":  gFlops / tg.Seconds() / 1e9,
		"linalg.bound_gflops":       peak,
	}, nil
}
