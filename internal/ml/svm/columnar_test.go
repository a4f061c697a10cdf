package svm

import (
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// TestLSSVMColumnarLOOCVMatchesRows requires the exact LOOCV to answer the
// same for every layout of the same data: rows only, an attached backing,
// and one-chunk and multi-chunk column-only copies, for the default RBF
// kernel and for a custom kernel whose Gram matrix is built by Eval over
// rows derived from the columns.
func TestLSSVMColumnarLOOCVMatchesRows(t *testing.T) {
	d := mltest.Clusters(80, 5, 4, 0.3, 17)
	backed := mltest.Clusters(80, 5, 4, 0.3, 17)
	backed.BuildColumns()
	for _, tr := range []*LSSVM{{}, {Kernel: evalOnly{RBF{Sigma: 1.7}}}} {
		want, err := tr.LOOCV(d)
		if err != nil {
			t.Fatal(err)
		}
		for name, ds := range map[string]*ml.Dataset{
			"attached":                backed,
			"column-only one chunk":   mltest.ColumnOnly(d, 80),
			"column-only multi chunk": mltest.ColumnOnly(d, 19),
		} {
			got, err := tr.LOOCV(ds)
			if err != nil {
				t.Fatalf("%T %s: %v", tr.Kernel, name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%T %s fold %d: %d, rows %d", tr.Kernel, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLSSVMTrainRejectsColumnOnly documents the serving restriction.
func TestLSSVMTrainRejectsColumnOnly(t *testing.T) {
	d := mltest.Clusters(30, 4, 3, 0.2, 3)
	if _, err := (&LSSVM{}).Train(mltest.ColumnOnly(d, 30)); err == nil {
		t.Fatal("Train accepted a column-only dataset")
	}
}
