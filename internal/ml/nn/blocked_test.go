package nn

import (
	"slices"
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// TestColumnarLOOCVMatchesRows pins the one LOOCV kernel, which reads
// columns block by block, to the direct per-fold Classifier.predict scan
// over rows with the held-out example excluded. It covers every layout the
// kernel sees (rows only, an attached backing, one-chunk and multi-chunk
// column-only copies) in radius, empty-neighborhood-fallback and 1-NN mode,
// with one block and with many blocks that straddle the chunk edges.
func TestColumnarLOOCVMatchesRows(t *testing.T) {
	d := mltest.Clusters(200, 6, 4, 0.3, 13)
	backed := mltest.Clusters(200, 6, 4, 0.3, 13)
	backed.BuildColumns()
	if backed.UsableCols() == nil {
		t.Fatal("BuildColumns did not attach a usable backing")
	}
	layouts := []struct {
		name string
		d    *ml.Dataset
	}{
		{"rows", d},
		{"attached", backed},
		{"column-only one chunk", mltest.ColumnOnly(d, 200)},
		{"column-only multi chunk", mltest.ColumnOnly(d, 47)},
	}
	defer func(old int) { blockRows = old }(blockRows)
	for _, tr := range []*Trainer{{}, {Radius: 0.05}, {OneNN: true}} {
		ci, err := tr.Train(d)
		if err != nil {
			t.Fatal(err)
		}
		c := ci.(*Classifier)
		for _, edge := range []int{512, 16} {
			blockRows = edge
			for _, l := range layouts {
				got, err := tr.LOOCV(l.d)
				if err != nil {
					t.Fatalf("%s: %v", l.name, err)
				}
				for i := range got {
					if want := c.predict(c.rows[i], i); got[i] != want {
						t.Fatalf("%+v block %d %s fold %d: LOOCV %d, direct %d", *tr, edge, l.name, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestSelectSessionMatchesSubsetScoring checks that incremental candidate
// scores equal the error of projecting the subset and running LOOCV on it —
// the exact computation the slow greedy path performs — across several
// rounds and both voting modes.
func TestSelectSessionMatchesSubsetScoring(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	dim := len(d.Examples[0].Features)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		sessI, err := tr.BeginSelect(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		var chosen []int
		for round := 0; round < 3; round++ {
			bestF, bestErr := -1, 2.0
			for f := 0; f < dim; f++ {
				already := false
				for _, c := range chosen {
					already = already || c == f
				}
				if already {
					continue
				}
				got, err := sessI.Score(0, chosen, f)
				if err != nil {
					t.Fatal(err)
				}
				sub := d.Select(append(append([]int{}, chosen...), f))
				preds, err := tr.LOOCV(sub)
				if err != nil {
					t.Fatal(err)
				}
				want := 1 - ml.Accuracy(sub, preds)
				if got != want {
					t.Fatalf("oneNN=%v round %d feature %d: session %v, subset %v", oneNN, round, f, got, want)
				}
				if got < bestErr {
					bestF, bestErr = f, got
				}
			}
			if err := sessI.Commit(bestF); err != nil {
				t.Fatal(err)
			}
			chosen = append(chosen, bestF)
		}
	}
}

// TestPredictZeroAllocs pins the pooled query buffer: a warmed classifier
// answers queries with zero heap allocations.
func TestPredictZeroAllocs(t *testing.T) {
	d := mltest.Clusters(120, 6, 4, 0.05, 5)
	for _, oneNN := range []bool{false, true} {
		c, err := (&Trainer{OneNN: oneNN}).Train(d)
		if err != nil {
			t.Fatal(err)
		}
		q := d.Examples[3].Features
		c.Predict(q) // warm the pool
		if allocs := testing.AllocsPerRun(100, func() { c.Predict(q) }); allocs != 0 {
			t.Errorf("oneNN=%v: Predict allocates %v per run, want 0", oneNN, allocs)
		}
	}
}

// TestColumnarSelectMatchesRows drives three greedy rounds through the
// dense session on the row dataset, the dense session on a column-only
// copy, and the low-memory session (one block and many blocks) on that
// copy, requiring identical scores (to the bit) and identical picks.
func TestColumnarSelectMatchesRows(t *testing.T) {
	d := mltest.Clusters(90, 6, 4, 0.3, 11)
	lite := mltest.ColumnOnly(d, 29)
	dim := d.Dim()
	defer func(cap, edge int) { denseRowsCap, blockRows = cap, edge }(denseRowsCap, blockRows)
	for _, oneNN := range []bool{false, true} {
		tr := &Trainer{OneNN: oneNN}
		begin := func(ds *ml.Dataset, dense bool, edge int) ml.SelectSession {
			t.Helper()
			denseRowsCap, blockRows = 16, edge
			if dense {
				denseRowsCap = 4096
			}
			s, err := tr.BeginSelect(ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			_, isDense := s.(*selectSession)
			if _, isLow := s.(*selectSessionLowMem); isDense != dense || isLow == dense {
				t.Fatalf("dense=%v: session is %T", dense, s)
			}
			return s
		}
		rowSess := begin(d, true, 512)
		sessions := map[string]ml.SelectSession{
			"dense column-only":           begin(lite, true, 512),
			"low-memory one block":        begin(lite, false, 512),
			"low-memory multi block":      begin(lite, false, 16),
			"low-memory multi block rows": begin(d, false, 16),
		}
		var chosen []int
		for round := 0; round < 3; round++ {
			bestF, bestErr := -1, 2.0
			for f := 0; f < dim; f++ {
				if slices.Contains(chosen, f) {
					continue
				}
				want, err := rowSess.Score(0, chosen, f)
				if err != nil {
					t.Fatal(err)
				}
				for name, s := range sessions {
					if got, err := s.Score(f%2, chosen, f); err != nil || got != want {
						t.Fatalf("oneNN=%v round %d feature %d: %s %v (%v), rows %v", oneNN, round, f, name, got, err, want)
					}
				}
				if want < bestErr {
					bestF, bestErr = f, want
				}
			}
			if err := rowSess.Commit(bestF); err != nil {
				t.Fatal(err)
			}
			for _, s := range sessions {
				if err := s.Commit(bestF); err != nil {
					t.Fatal(err)
				}
			}
			chosen = append(chosen, bestF)
		}
	}
}

// TestTrainRejectsColumnOnly documents the serving restriction: a classifier
// that answers arbitrary queries needs materialized rows.
func TestTrainRejectsColumnOnly(t *testing.T) {
	d := mltest.Clusters(40, 4, 3, 0.2, 3)
	if _, err := (&Trainer{}).Train(mltest.ColumnOnly(d, 40)); err == nil {
		t.Fatal("Train accepted a column-only dataset")
	}
}
