// Package tree implements CART decision trees and AdaBoost.SAMME boosting
// over them. The paper's closest prior work (Monsifrot, Bodin & Quiniou)
// used boosted decision trees for a *binary* unroll decision; this package
// provides the multi-class counterpart so the comparison the paper draws
// in Section 9 can be run directly against the same data.
package tree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"metaopt/internal/ml"
)

// Trainer fits a single CART decision tree by recursive binary splitting
// on Gini impurity.
type Trainer struct {
	// MaxDepth bounds the tree (0 = default 12).
	MaxDepth int
	// MinLeaf is the minimum examples per leaf (0 = default 3).
	MinLeaf int
}

var _ ml.Trainer = (*Trainer)(nil)

// node is one tree node: either a split (Feature/Threshold with children)
// or a leaf (Label).
type node struct {
	Feature   int     `json:"f,omitempty"`
	Threshold float64 `json:"t,omitempty"`
	Left      *node   `json:"l,omitempty"`
	Right     *node   `json:"r,omitempty"`
	Label     int     `json:"y,omitempty"`
}

func (n *node) leaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a trained decision tree.
type Tree struct {
	Root *node `json:"root"`
}

var _ ml.Classifier = (*Tree)(nil)

// Predict walks the tree.
func (t *Tree) Predict(features []float64) int {
	n := t.Root
	for !n.leaf() {
		if features[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// Depth returns the maximum depth of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf() {
		return 1
	}
	l, r := depth(n.Left), depth(n.Right)
	if r > l {
		l = r
	}
	return l + 1
}

// Train fits the tree with uniform example weights.
func (t *Trainer) Train(d *ml.Dataset) (ml.Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	w := make([]float64, d.Len())
	for i := range w {
		w[i] = 1
	}
	return t.trainWeighted(d.Columns(), w)
}

// trainWeighted grows one tree over a dataset's columns.
func (t *Trainer) trainWeighted(cols *ml.Columns, weights []float64) (*Tree, error) {
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 12
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 3
	}
	b := builders.Get().(*builder)
	b.init(cols)
	root := b.grow(weights, maxDepth, minLeaf)
	builders.Put(b)
	return &Tree{Root: root}, nil
}

// builder holds the presorted scratch state for growing one tree. Sorting
// every candidate feature at every node used to dominate training time;
// instead each feature is sorted once over the whole dataset, and a split
// stably partitions each feature's order in place, so the sorted-order
// invariant holds in every node segment without ever sorting again.
//
// Builders are pooled: LOOCV trains one tree per fold and boosting one per
// round, and the column/order arenas are the allocation cost that matters.
// A builder also keeps the pristine (full-dataset) sorted orders from its
// last init: boosting re-trains on the same feature matrix with different
// weights every round, and sort order does not depend on weights, so a
// repeat init only restores the orders instead of re-sorting.
type builder struct {
	n, dim int
	cols   [][]float64 // column-major feature values: cols[f][i]
	labels []int32
	ord    [][]int32 // per-feature member indices, value-sorted per segment
	tmp    []int32   // stable-partition spill buffer
	w      []float64

	// pristine sorted orders for the cols currently loaded; valid when
	// pn/pdim match and the incoming feature matrix compares equal.
	pristine [][]int32
	pn, pdim int
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// init loads a dataset's columns into the builder and presorts every
// feature, reusing the pristine orders when the feature matrix is unchanged
// since the last init (compare-while-copy, so reuse is verified not
// assumed).
func (b *builder) init(cols *ml.Columns) {
	n, dim := cols.N, cols.Dim
	b.n, b.dim = n, dim
	same := b.pn == n && b.pdim == dim
	if cap(b.labels) < n {
		b.labels = make([]int32, n)
		b.tmp = make([]int32, n)
	} else {
		b.labels = b.labels[:n]
		b.tmp = b.tmp[:n]
	}
	for i, lab := range cols.Labels {
		b.labels[i] = int32(lab)
	}
	if cap(b.cols) < dim {
		b.cols = make([][]float64, dim)
		b.ord = make([][]int32, dim)
		b.pristine = make([][]int32, dim)
		same = false
	} else {
		b.cols = b.cols[:dim]
		b.ord = b.ord[:dim]
		b.pristine = b.pristine[:dim]
	}
	for f := 0; f < dim; f++ {
		if cap(b.cols[f]) < n {
			b.cols[f] = make([]float64, n)
			b.ord[f] = make([]int32, n)
			b.pristine[f] = make([]int32, n)
			same = false
		} else {
			b.cols[f] = b.cols[f][:n]
			b.ord[f] = b.ord[f][:n]
			b.pristine[f] = b.pristine[f][:n]
		}
		col := b.cols[f]
		for ci := 0; ci < cols.NumChunks(); ci++ {
			ch := cols.Chunk(ci)
			for r, v := range ch.Feats[f] {
				if i := ch.Start + r; col[i] != v {
					col[i] = v
					same = false
				}
			}
		}
	}
	if !same {
		for f := 0; f < dim; f++ {
			pr := b.pristine[f]
			for i := range pr {
				pr[i] = int32(i)
			}
			sortOrd(b.cols[f], pr)
		}
		b.pn, b.pdim = n, dim
	}
	for f := 0; f < dim; f++ {
		copy(b.ord[f], b.pristine[f])
	}
}

// sortOrd sorts member indices by value, breaking ties by index so the
// order is deterministic.
func sortOrd(col []float64, ord []int32) {
	slices.SortFunc(ord, func(a, c int32) int {
		va, vc := col[a], col[c]
		switch {
		case va < vc:
			return -1
		case va > vc:
			return 1
		}
		return int(a - c)
	})
}

// grow builds the tree over the whole (presorted) dataset with the given
// example weights.
func (b *builder) grow(w []float64, maxDepth, minLeaf int) *node {
	b.w = w
	root := b.build(0, b.n, maxDepth, minLeaf)
	b.w = nil
	return root
}

// build grows one subtree over the members in segment [lo, hi) of every
// feature's order.
func (b *builder) build(lo, hi, depthLeft, minLeaf int) *node {
	label, pure := b.majority(lo, hi)
	if pure || depthLeft <= 1 || hi-lo < 2*minLeaf {
		return &node{Label: label}
	}
	f, thr, ok := b.bestSplit(lo, hi, minLeaf)
	if !ok {
		return &node{Label: label}
	}
	nl := b.partition(lo, hi, f, thr)
	if nl == 0 || nl == hi-lo {
		return &node{Label: label}
	}
	return &node{
		Feature:   f,
		Threshold: thr,
		Left:      b.build(lo, lo+nl, depthLeft-1, minLeaf),
		Right:     b.build(lo+nl, hi, depthLeft-1, minLeaf),
	}
}

// partition stably splits every feature's segment on cols[f] <= thr and
// returns the left-side member count.
func (b *builder) partition(lo, hi, f int, thr float64) int {
	split := b.cols[f]
	for g := 0; g < b.dim; g++ {
		seg := b.ord[g][lo:hi]
		spill := b.tmp[:0]
		k := 0
		for _, i := range seg {
			if split[i] <= thr {
				seg[k] = i
				k++
			} else {
				spill = append(spill, i)
			}
		}
		copy(seg[k:], spill)
		if g == b.dim-1 {
			return k
		}
	}
	return 0
}

// majority returns the weighted majority label of a segment and whether it
// is pure.
func (b *builder) majority(lo, hi int) (label int, pure bool) {
	var counts [ml.NumClasses + 1]float64
	for _, i := range b.ord[0][lo:hi] {
		counts[b.labels[i]] += b.w[i]
	}
	best, classes := 1, 0
	for lab := 1; lab <= ml.NumClasses; lab++ {
		if counts[lab] > 0 {
			classes++
		}
		if counts[lab] > counts[best] {
			best = lab
		}
	}
	return best, classes <= 1
}

// bestSplit finds the (feature, threshold) pair minimizing weighted Gini
// impurity of the induced partition. Each feature's segment is already in
// value order, so the threshold sweep needs no sort.
func (b *builder) bestSplit(lo, hi, minLeaf int) (feature int, threshold float64, ok bool) {
	bestGini := math.Inf(1)
	for f := 0; f < b.dim; f++ {
		seg := b.ord[f][lo:hi]
		col := b.cols[f]

		// Sweep thresholds between distinct values, maintaining class
		// weight tallies on each side.
		var leftC, rightC [ml.NumClasses + 1]float64
		var leftW, rightW float64
		for _, i := range seg {
			rightC[b.labels[i]] += b.w[i]
			rightW += b.w[i]
		}
		leftN := 0
		for k := 0; k < len(seg)-1; k++ {
			i := seg[k]
			lab := b.labels[i]
			leftC[lab] += b.w[i]
			leftW += b.w[i]
			rightC[lab] -= b.w[i]
			rightW -= b.w[i]
			leftN++
			if col[i] == col[seg[k+1]] {
				continue // not a valid cut point
			}
			if leftN < minLeaf || len(seg)-leftN < minLeaf {
				continue
			}
			g := leftW*gini(&leftC, leftW) + rightW*gini(&rightC, rightW)
			if g < bestGini {
				bestGini = g
				feature = f
				threshold = (col[i] + col[seg[k+1]]) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func gini(counts *[ml.NumClasses + 1]float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / total
		s -= p * p
	}
	return s
}

// String renders the tree structure for debugging.
func (t *Tree) String() string {
	var sb []byte
	var walk func(n *node, indent string)
	walk = func(n *node, indent string) {
		if n.leaf() {
			sb = append(sb, fmt.Sprintf("%s-> %d\n", indent, n.Label)...)
			return
		}
		sb = append(sb, fmt.Sprintf("%sf%d <= %.3f?\n", indent, n.Feature, n.Threshold)...)
		walk(n.Left, indent+"  ")
		walk(n.Right, indent+"  ")
	}
	walk(t.Root, "")
	return string(sb)
}
