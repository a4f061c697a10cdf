package tree

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

func TestTreeSeparable(t *testing.T) {
	d := mltest.Clusters(200, 6, 4, 0.05, 1)
	tr := &Trainer{}
	c, err := tr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range d.Examples {
		if c.Predict(e.Features) == e.Label {
			hits++
		}
	}
	if frac := float64(hits) / float64(d.Len()); frac < 0.95 {
		t.Errorf("training accuracy = %.2f", frac)
	}
}

func TestTreeGeneralizes(t *testing.T) {
	train := mltest.Clusters(300, 6, 4, 0.1, 2)
	test := mltest.Clusters(100, 6, 4, 0.1, 77)
	c, err := (&Trainer{}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range test.Examples {
		if c.Predict(e.Features) == e.Label {
			hits++
		}
	}
	if frac := float64(hits) / float64(test.Len()); frac < 0.85 {
		t.Errorf("held-out accuracy = %.2f", frac)
	}
}

func TestTreeDepthRespected(t *testing.T) {
	d := mltest.Clusters(300, 6, 8, 0.4, 3)
	c, err := (&Trainer{MaxDepth: 3}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	tree := c.(*Tree)
	if got := tree.Depth(); got > 3 {
		t.Errorf("depth = %d, want <= 3", got)
	}
	deep, err := (&Trainer{MaxDepth: 10}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	if deep.(*Tree).Depth() <= tree.Depth() {
		t.Error("deeper budget should grow a deeper tree on noisy data")
	}
}

func TestTreePureLeafStops(t *testing.T) {
	// All labels identical: the tree must be a single leaf.
	d := &ml.Dataset{}
	for i := 0; i < 20; i++ {
		e := ml.Example{Features: []float64{float64(i), float64(i % 3)}, Label: 5}
		e.Cycles[1] = 1
		d.Examples = append(d.Examples, e)
	}
	c, err := (&Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	tree := c.(*Tree)
	if !tree.Root.leaf() || tree.Root.Label != 5 {
		t.Errorf("expected single leaf with label 5:\n%s", tree)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	d := mltest.Clusters(60, 4, 4, 0.3, 4)
	c, err := (&Trainer{MinLeaf: 25}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	// With min-leaf 25 over 60 examples, at most one split fits.
	if got := c.(*Tree).Depth(); got > 2 {
		t.Errorf("depth = %d with huge min-leaf", got)
	}
}

func TestTreeString(t *testing.T) {
	d := mltest.Clusters(100, 4, 3, 0.1, 5)
	c, err := (&Trainer{MaxDepth: 3}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	s := c.(*Tree).String()
	if len(s) == 0 {
		t.Error("empty tree dump")
	}
}

func TestBoostBeatsWeakTree(t *testing.T) {
	// Noisy data: a depth-2 stump is weak; boosting stumps must beat one.
	train := mltest.NoisyLabels(mltest.Clusters(400, 6, 4, 0.25, 6), 0.15, 6)
	test := mltest.Clusters(150, 6, 4, 0.25, 88)
	weak, err := (&Trainer{MaxDepth: 2}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := (&Boost{Rounds: 30, MaxDepth: 2}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	acc := func(c ml.Classifier) float64 {
		hits := 0
		for _, e := range test.Examples {
			if c.Predict(e.Features) == e.Label {
				hits++
			}
		}
		return float64(hits) / float64(test.Len())
	}
	aw, ab := acc(weak), acc(boosted)
	if ab <= aw {
		t.Errorf("boosted %.2f <= weak %.2f", ab, aw)
	}
}

func TestBoostEnsembleShape(t *testing.T) {
	d := mltest.Clusters(200, 5, 4, 0.2, 7)
	c, err := (&Boost{Rounds: 10}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	ens := c.(*Ensemble)
	if len(ens.Trees) == 0 || len(ens.Trees) != len(ens.Weight) {
		t.Fatalf("ensemble shape: %d trees, %d weights", len(ens.Trees), len(ens.Weight))
	}
	for _, w := range ens.Weight {
		if w <= 0 {
			t.Errorf("non-positive tree weight %v", w)
		}
	}
}

func TestBoostLOOCVViaGeneric(t *testing.T) {
	d := mltest.Clusters(60, 5, 3, 0.1, 8)
	preds, err := ml.LOOCV(&Boost{Rounds: 5, MaxDepth: 3}, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(d, preds); acc < 0.7 {
		t.Errorf("boosted LOOCV accuracy = %.2f", acc)
	}
}

func TestTrainRejectsBadDataset(t *testing.T) {
	if _, err := (&Trainer{}).Train(&ml.Dataset{}); err == nil {
		t.Error("expected error for empty dataset")
	}
	if _, err := (&Boost{}).Train(&ml.Dataset{}); err == nil {
		t.Error("expected error for empty dataset")
	}
}

// TestFoldSessionMatchesTrain asserts the shared-presort fold path grows
// exactly the tree that training on each fold's own dataset grows: same
// structure, same features, same thresholds bit for bit.
func TestFoldSessionMatchesTrain(t *testing.T) {
	d := mltest.Clusters(120, 5, 4, 0.3, 11)
	tr := &Trainer{MaxDepth: 5}
	sess, err := tr.BeginFolds(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fold ml.Dataset
	for i := 0; i < d.Len(); i++ {
		got, err := sess.TrainWithout(i%3, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.Train(d.WithoutInto(i, &fold))
		if err != nil {
			t.Fatal(err)
		}
		if !sameTree(got.(*Tree).Root, want.(*Tree).Root) {
			t.Fatalf("fold %d: session tree differs from per-fold training\nsession:\n%swant:\n%s",
				i, got.(*Tree), want.(*Tree))
		}
	}
}

func sameTree(a, b *node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Feature == b.Feature && a.Threshold == b.Threshold &&
		a.Label == b.Label && sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// TestBuilderPristineReuse trains twice on the same dataset through the
// pooled builder (as boosting does every round) and checks the trees match,
// covering the order-restore path.
func TestBuilderPristineReuse(t *testing.T) {
	d := mltest.Clusters(150, 4, 4, 0.2, 7)
	b := builders.Get().(*builder)
	defer builders.Put(b)
	w := make([]float64, d.Len())
	for i := range w {
		w[i] = 1
	}
	b.init(d.Columns())
	first := &Tree{Root: b.grow(w, 6, 3)}
	b.init(d.Columns()) // same matrix, fresh backing: must hit the pristine cache
	second := &Tree{Root: b.grow(w, 6, 3)}
	if !sameTree(first.Root, second.Root) {
		t.Fatal("pristine-cache retrain differs from fresh train")
	}
}

// TestColumnOnlyRejectedWhereRowsArePredicted: boosting scores its weak
// trees on feature rows and generic LOOCV predicts each held-out row, so
// both refuse a column-only dataset instead of panicking on nil rows.
func TestColumnOnlyRejectedWhereRowsArePredicted(t *testing.T) {
	lite := mltest.ColumnOnly(mltest.Clusters(60, 4, 3, 0.2, 2), 25)
	if _, err := (&Boost{}).Train(lite); err == nil {
		t.Error("Boost.Train accepted a column-only dataset")
	}
	if _, err := ml.LOOCV(&Trainer{MaxDepth: 4}, lite); err == nil {
		t.Error("LOOCV accepted a column-only dataset")
	}
}
