package lda

import (
	"math"
	"math/rand"
	"testing"

	"metaopt/internal/ml"
	"metaopt/internal/ml/mltest"
)

// separated builds two classes separated along a diagonal direction in a
// higher-dimensional space with noise dimensions.
func separated(n int, seed int64) *ml.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &ml.Dataset{}
	for i := 0; i < n; i++ {
		label := 1 + i%2
		shift := float64(label-1) * 3
		f := []float64{
			shift + 0.3*rng.NormFloat64(),
			shift + 0.3*rng.NormFloat64(),
			rng.NormFloat64(), // noise
			rng.NormFloat64(), // noise
		}
		e := ml.Example{Name: "e", Benchmark: "b", Features: f, Label: label}
		for u := 1; u <= ml.NumClasses; u++ {
			e.Cycles[u] = 100000
		}
		d.Examples = append(d.Examples, e)
	}
	return d
}

func TestProjectionSeparatesClasses(t *testing.T) {
	d := separated(200, 1)
	p, err := Project(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := p.ApplyAll(d)
	var m1, m2 float64
	var n1, n2 int
	for i, e := range d.Examples {
		if e.Label == 1 {
			m1 += pts[i][0]
			n1++
		} else {
			m2 += pts[i][0]
			n2++
		}
	}
	m1 /= float64(n1)
	m2 /= float64(n2)
	// Within-class spread along the discriminant.
	var s float64
	for i, e := range d.Examples {
		mu := m1
		if e.Label == 2 {
			mu = m2
		}
		s += (pts[i][0] - mu) * (pts[i][0] - mu)
	}
	s = math.Sqrt(s / float64(len(pts)))
	if sep := math.Abs(m1-m2) / (s + 1e-12); sep < 3 {
		t.Errorf("class separation = %.2f sigma, want >= 3", sep)
	}
}

func TestProject2D(t *testing.T) {
	d := mltest.Clusters(160, 6, 4, 0.1, 2)
	p, err := Project(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.W.Cols() != 2 || p.W.Rows() != 6 {
		t.Errorf("W dims = %dx%d", p.W.Rows(), p.W.Cols())
	}
	pts := p.ApplyAll(d)
	if len(pts) != d.Len() || len(pts[0]) != 2 {
		t.Fatalf("points shape wrong")
	}
	// Projected points must not be all identical.
	allSame := true
	for _, pt := range pts[1:] {
		if pt[0] != pts[0][0] || pt[1] != pts[0][1] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("projection collapsed all points")
	}
}

func TestProjectErrors(t *testing.T) {
	d := separated(50, 3)
	if _, err := Project(d, 0); err == nil {
		t.Error("expected dims error")
	}
	if _, err := Project(d, 99); err == nil {
		t.Error("expected dims error")
	}
	one := &ml.Dataset{}
	for i := 0; i < 10; i++ {
		e := ml.Example{Features: []float64{float64(i), 1}, Label: 3}
		e.Cycles[1] = 1
		one.Examples = append(one.Examples, e)
	}
	if _, err := Project(one, 1); err == nil {
		t.Error("expected single-class error")
	}
}

// TestProjectDeterministic fits the same multi-class projection twice
// (once from a column-only copy) and requires bit-equal directions.
func TestProjectDeterministic(t *testing.T) {
	d := mltest.Clusters(160, 6, 5, 0.4, 8)
	a, err := Project(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		src := d
		if run%2 == 1 {
			src = mltest.ColumnOnly(d, 45)
		}
		b, err := Project(src, 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < a.W.Rows(); r++ {
			for c := 0; c < a.W.Cols(); c++ {
				if math.Float64bits(a.W.At(r, c)) != math.Float64bits(b.W.At(r, c)) {
					t.Fatalf("run %d: W[%d][%d] = %v, first %v", run, r, c, b.W.At(r, c), a.W.At(r, c))
				}
			}
		}
	}
}
