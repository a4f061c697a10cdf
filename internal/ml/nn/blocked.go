package nn

import (
	"fmt"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// blockRows is the block edge of the LOOCV kernel: queries and database
// rows are processed blockRows at a time, so the working set is two
// normalized row-major feature blocks (a few hundred KB) regardless of
// corpus size. A variable so tests can force multi-block runs at small n.
var blockRows = 512

// blockScratch is one worker's reusable buffers for the blocked kernel,
// sized to the block edge actually used: min(n, blockRows).
type blockScratch struct {
	col    []float64 // one normalized feature column of a block
	qrows  []float64 // normalized query block, row-major
	drows  []float64 // normalized database block, row-major
	states []ml.NeighborVote[float64]
}

func newBlockScratch(n int) *blockScratch {
	edge := max(min(n, blockRows), 1)
	return &blockScratch{
		col:    make([]float64, edge),
		states: make([]ml.NeighborVote[float64], edge),
	}
}

// gather normalizes rows [lo, hi) of the feats columns into dst (grown when
// too small), row-major with the features in feats order, and returns it.
func (sc *blockScratch) gather(dst []float64, cols *ml.Columns, norm *ml.Norm, feats []int, lo, hi int) []float64 {
	k := len(feats)
	if need := (hi - lo) * k; cap(dst) < need {
		dst = make([]float64, need)
	} else {
		dst = dst[:need]
	}
	for fi, f := range feats {
		for r, v := range norm.ApplyColumnRange(cols, f, lo, hi, sc.col) {
			dst[r*k+fi] = v
		}
	}
	return dst
}

// blockedLOOCV computes leave-one-out predictions for query rows [qlo, qhi)
// against the whole column backing, streaming both sides block by block
// (the block edge is the scratch's). feats gives the features in
// accumulation order. Each block is gathered row-major, and each distance is
// one SqDist call over a query row and a database row: every distance, vote
// and tie resolution matches the per-fold Classifier.predict scan bit for
// bit. Database blocks advance in row order, preserving the
// first-index-wins nearest rule.
func blockedLOOCV(cols *ml.Columns, norm *ml.Norm, feats []int, radius float64, oneNN bool, qlo, qhi int, sc *blockScratch, preds []int) {
	n, k := cols.N, len(feats)
	labels := cols.Labels
	edge := len(sc.states)
	for qs := qlo; qs < qhi; qs += edge {
		qe := min(qs+edge, qhi)
		states := sc.states[:qe-qs]
		for i := range states {
			states[i].Reset(radius, oneNN)
		}
		sc.qrows = sc.gather(sc.qrows, cols, norm, feats, qs, qe)
		for ds := 0; ds < n; ds += edge {
			de := min(ds+edge, n)
			drows := sc.qrows // the diagonal block is the query block
			if ds != qs || de != qe {
				sc.drows = sc.gather(sc.drows, cols, norm, feats, ds, de)
				drows = sc.drows
			}
			for qi := range states {
				st := &states[qi]
				gq := qs + qi
				q := sc.qrows[qi*k : (qi+1)*k]
				for j := 0; j < de-ds; j++ {
					if gj := ds + j; gj != gq {
						st.Observe(gj, linalg.SqDist(q, drows[j*k:(j+1)*k]), labels)
					}
				}
			}
		}
		for qi := range states {
			preds[qs+qi-qlo] = states[qi].Finish(labels)
		}
	}
}

// selectSessionLowMem scores greedy forward selection without the n×n
// committed-distance matrix: each candidate is priced by re-running the
// blocked kernel over committed features plus the candidate. That trades
// O(n²·k) work per candidate for O(blockRows·k) memory, the only shape that
// scales greedy selection past the dense cap.
type selectSessionLowMem struct {
	cols      *ml.Columns
	norm      *ml.Norm
	committed []int
	radius    float64
	oneNN     bool
	scratch   []*blockScratch
	preds     [][]int
}

// Score implements ml.SelectSession.
func (s *selectSessionLowMem) Score(worker int, chosen []int, cand int) (float64, error) {
	if len(chosen) != len(s.committed) {
		return 0, fmt.Errorf("nn: selection session out of sync: %d chosen, %d committed", len(chosen), len(s.committed))
	}
	if cand < 0 || cand >= s.cols.Dim {
		return 0, fmt.Errorf("nn: candidate feature %d out of range", cand)
	}
	if worker < 0 || worker >= len(s.scratch) {
		return 0, fmt.Errorf("nn: worker %d out of range", worker)
	}
	feats := append(append(make([]int, 0, len(s.committed)+1), s.committed...), cand)
	n := s.cols.N
	preds := s.preds[worker]
	blockedLOOCV(s.cols, s.norm, feats, s.radius, s.oneNN, 0, n, s.scratch[worker], preds)
	hit := 0
	for i, p := range preds {
		if p == s.cols.Labels[i] {
			hit++
		}
	}
	return 1 - float64(hit)/float64(n), nil
}

// Commit implements ml.SelectSession.
func (s *selectSessionLowMem) Commit(f int) error {
	if f < 0 || f >= s.cols.Dim {
		return fmt.Errorf("nn: commit feature %d out of range", f)
	}
	s.committed = append(s.committed, f)
	return nil
}
