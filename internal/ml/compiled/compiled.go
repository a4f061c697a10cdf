// Package compiled lowers trained classifiers into flat, serve-optimized
// programs. The interpreted classifiers in nn, svm and tree are built for
// training-time ergonomics — pointer-chasing tree nodes, [][]float64 row
// slices, per-query kernel closures. A compiled Program holds the same
// decision function in contiguous arrays:
//
//   - decision trees and boosted ensembles flatten into one node slab
//     walked iteratively (no recursion, no pointer chasing);
//   - the near-neighbor database becomes a flat exemplar table with a
//     float32 mirror and precomputed squared norms;
//   - kernel machines (LS-SVM, SMO, ridge regression) bake their support
//     coefficients into dense matrices so a batched query is one distance
//     sweep plus one GEMV.
//
// Two evaluation paths exist. Predict is the exact path: float64
// arithmetic in the same operation order as the interpreted classifier,
// so single-query answers are bit-identical, with zero steady-state heap
// allocations (scratch comes from a sync.Pool). PredictBatch is the
// throughput path: the whole batch runs through the float32 blocked
// distance kernel, which rounds differently than float64 — the divergence
// is declared in Version, which callers fold into their fingerprints.
package compiled

import (
	"fmt"
	"math"
	"sync"

	"metaopt/internal/linalg"
	"metaopt/internal/ml"
)

// Compiler is implemented by classifiers that can lower themselves into a
// compiled Program.
type Compiler interface {
	Compile() (*Program, error)
}

// Lower compiles a classifier, or reports that it has no compiled form.
func Lower(c ml.Classifier) (*Program, error) {
	cc, ok := c.(Compiler)
	if !ok {
		return nil, fmt.Errorf("compiled: classifier %T has no compiled lowering", c)
	}
	return cc.Compile()
}

type kind uint8

const (
	kindForest kind = iota + 1
	kindNN
	kindKernel
	kindRegress
)

// Node is one flattened tree node. Left < 0 marks a leaf carrying Label;
// otherwise the walk continues left when features[Feature] <= Threshold.
type Node struct {
	Feature     int32
	Left, Right int32
	Label       int32
	Threshold   float64
}

// Program is a lowered classifier. Programs are immutable after
// construction and safe for concurrent use; share them by pointer (the
// scratch pool must not be copied).
type Program struct {
	kind    kind
	version string

	norm *ml.Norm // nil for forests, which read raw features

	// Forest: one slab of nodes, a root per tree, a vote weight per tree.
	nodes  []Node
	roots  []int32
	weight []float64
	single bool // single plain tree: return the leaf label directly

	// Exemplar/support table, n rows × dim, flat row-major, with the
	// float32 mirror and precomputed squared norms for the batch path.
	n, dim  int
	table   []float64
	table32 []float32
	norms32 []float32

	// Near-neighbor.
	labels []int
	radius float64
	oneNN  bool

	// Kernel machines. alpha is bits×n row-major (premultiplied by y for
	// SMO); sigma > 0 selects the RBF kernel, otherwise the linear kernel.
	bits     int
	alpha    []float64
	alpha32  []float32
	bias     []float64
	codes    [][]int8
	sigma    float64
	skipZero bool // preserve the interpreted SMO path's a == 0 skip

	scratch sync.Pool
}

// scratchBuf is the per-goroutine working set; pooled so the steady-state
// Predict path performs zero heap allocations.
type scratchBuf struct {
	q   []float64 // normalized query
	k   []float64 // kernel vector
	s   []float64 // per-bit scores
	q32 []float32 // normalized batch queries, flat m×dim
	d2  []float32 // batch squared distances, flat m×n
	k32 []float32 // kernel vector (batch path)
	s32 []float32 // per-bit scores (batch path)
}

func (p *Program) initPool() {
	p.scratch.New = func() any {
		return &scratchBuf{
			q: make([]float64, p.dim),
			k: make([]float64, p.n),
			s: make([]float64, maxInt(p.bits, 1)),
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Version names the lowering and its rounding policy. Exact lowerings
// (forests) carry a bare tag; table lowerings append "+f32b" because their
// batch path rounds in float32. Callers version fingerprints with it.
func (p *Program) Version() string { return p.version }

// Kind names the lowered family, for logs and metrics.
func (p *Program) Kind() string {
	switch p.kind {
	case kindForest:
		return "forest"
	case kindNN:
		return "nn"
	case kindKernel:
		return "kernel"
	case kindRegress:
		return "regress"
	}
	return "unknown"
}

// TableRows reports the exemplar/support table size (0 for forests).
func (p *Program) TableRows() int { return p.n }

// Predict evaluates the exact float64 path: the same arithmetic in the
// same order as the interpreted classifier, so the answer is bit-identical
// to it, with zero steady-state allocations. The feature vector must have
// the lowered model's dimensionality (forests tolerate any vector their
// splits can index, exactly like the interpreted tree walk).
func (p *Program) Predict(features []float64) int {
	if p.kind == kindForest {
		return p.forestPredict(features)
	}
	sc := p.scratch.Get().(*scratchBuf)
	q := p.norm.ApplyInto(features, sc.q[:cap(sc.q)])
	var out int
	switch p.kind {
	case kindNN:
		out = p.nnPredict(q)
	case kindKernel:
		out = p.kernelPredict(q, sc)
	case kindRegress:
		out = p.regressPredict(q, sc)
	}
	p.scratch.Put(sc)
	return out
}

// PredictBatch evaluates every query and writes the decisions into out
// (grown when too small) and returns it. Forests run the exact walk per
// query; table programs run the float32 blocked distance path across the
// whole batch at once, which is the throughput mode Version declares.
func (p *Program) PredictBatch(qs [][]float64, out []int) []int {
	if cap(out) < len(qs) {
		out = make([]int, len(qs))
	} else {
		out = out[:len(qs)]
	}
	m := len(qs)
	if m == 0 {
		return out
	}
	if p.kind == kindForest {
		for i, q := range qs {
			out[i] = p.forestPredict(q)
		}
		return out
	}

	sc := p.scratch.Get().(*scratchBuf)
	sc.q32 = growF32(sc.q32, m*p.dim)
	qbuf := sc.q[:cap(sc.q)]
	for i, v := range qs {
		nq := p.norm.ApplyInto(v, qbuf)
		dst := sc.q32[i*p.dim : (i+1)*p.dim]
		for j, x := range nq {
			dst[j] = float32(x)
		}
	}
	if p.kind == kindNN || p.sigma > 0 {
		sc.d2 = linalg.PairwiseSqDistF32Into(sc.q32, m, p.table32, p.n, p.dim, p.norms32, sc.d2)
	}

	switch p.kind {
	case kindNN:
		for i := 0; i < m; i++ {
			out[i] = p.nnPredictRow32(sc.d2[i*p.n : (i+1)*p.n])
		}
	case kindKernel:
		sc.k32 = growF32(sc.k32, p.n)
		sc.s32 = growF32(sc.s32, p.bits)
		scores := sc.s[:p.bits]
		for i := 0; i < m; i++ {
			p.kernelRow32(sc.q32[i*p.dim:(i+1)*p.dim], sc.d2, i, sc.k32[:p.n])
			linalg.MulVecF32(p.alpha32, p.bits, p.n, sc.k32[:p.n], sc.s32[:p.bits])
			for b := 0; b < p.bits; b++ {
				scores[b] = float64(sc.s32[b]) + p.bias[b]
			}
			out[i] = decode(p.codes, scores)
		}
	case kindRegress:
		sc.k32 = growF32(sc.k32, p.n)
		for i := 0; i < m; i++ {
			p.kernelRow32(sc.q32[i*p.dim:(i+1)*p.dim], sc.d2, i, sc.k32[:p.n])
			s := float64(linalg.DotF32(p.alpha32, sc.k32[:p.n])) + p.bias[0]
			out[i] = clampRound(s)
		}
	}
	p.scratch.Put(sc)
	return out
}

func growF32(b []float32, n int) []float32 {
	if cap(b) < n {
		return make([]float32, n)
	}
	return b[:n]
}

// --- Forest --------------------------------------------------------------

func (p *Program) forestPredict(features []float64) int {
	if p.single {
		return int(p.walk(p.roots[0], features))
	}
	var votes [ml.NumClasses + 1]float64
	for t, root := range p.roots {
		votes[p.walk(root, features)] += p.weight[t]
	}
	best := 1
	for lab := 2; lab <= ml.NumClasses; lab++ {
		if votes[lab] > votes[best] {
			best = lab
		}
	}
	return best
}

// walk descends one flattened tree iteratively.
func (p *Program) walk(root int32, features []float64) int32 {
	n := &p.nodes[root]
	for n.Left >= 0 {
		if features[n.Feature] <= n.Threshold {
			n = &p.nodes[n.Left]
		} else {
			n = &p.nodes[n.Right]
		}
	}
	return n.Label
}

// --- Near-neighbor -------------------------------------------------------

// nnPredict runs nn.Classifier's vote (ml.NeighborVote) over the table
// with the same SqDist accumulation, so the answer is bit-identical.
func (p *Program) nnPredict(q []float64) int {
	var v ml.NeighborVote[float64]
	v.Reset(p.radius, p.oneNN)
	for i := 0; i < p.n; i++ {
		v.Observe(i, linalg.SqDist(q, p.table[i*p.dim:(i+1)*p.dim]), p.labels)
	}
	return v.Finish(p.labels)
}

// nnPredictRow32 is the float32 batch counterpart reading a precomputed
// distance row.
func (p *Program) nnPredictRow32(d2s []float32) int {
	var v ml.NeighborVote[float32]
	v.Reset(p.radius, p.oneNN)
	for i, d2 := range d2s {
		v.Observe(i, d2, p.labels)
	}
	return v.Finish(p.labels)
}

// --- Kernel machines -----------------------------------------------------

// kernelVec64 fills k with the exact kernel evaluations against every
// table row: the RBF expression matches svm.RBF.Eval term for term.
func (p *Program) kernelVec64(q, k []float64) {
	if p.sigma > 0 {
		denom := 2 * p.sigma * p.sigma
		for i := range k {
			k[i] = math.Exp(-linalg.SqDist(q, p.table[i*p.dim:(i+1)*p.dim]) / denom)
		}
		return
	}
	for i := range k {
		k[i] = linalg.Dot(q, p.table[i*p.dim:(i+1)*p.dim])
	}
}

// kernelRow32 fills k with float32 kernel evaluations for batch query i:
// RBF reads the precomputed distance row, the linear kernel dots the query
// against the float32 table.
func (p *Program) kernelRow32(qi []float32, d2 []float32, i int, k []float32) {
	if p.sigma > 0 {
		denom := 2 * p.sigma * p.sigma
		row := d2[i*p.n : (i+1)*p.n]
		for j := range k {
			k[j] = float32(math.Exp(float64(-row[j]) / denom))
		}
		return
	}
	for j := range k {
		k[j] = linalg.DotF32(qi, p.table32[j*p.dim:(j+1)*p.dim])
	}
}

func (p *Program) kernelPredict(q []float64, sc *scratchBuf) int {
	k := sc.k[:p.n]
	p.kernelVec64(q, k)
	scores := sc.s[:p.bits]
	for bit := 0; bit < p.bits; bit++ {
		s := p.bias[bit]
		off := bit * p.n
		if p.skipZero {
			for i := 0; i < p.n; i++ {
				if a := p.alpha[off+i]; a != 0 {
					s += a * k[i]
				}
			}
		} else {
			for i := 0; i < p.n; i++ {
				s += p.alpha[off+i] * k[i]
			}
		}
		scores[bit] = s
	}
	return decode(p.codes, scores)
}

func (p *Program) regressPredict(q []float64, sc *scratchBuf) int {
	k := sc.k[:p.n]
	p.kernelVec64(q, k)
	s := p.bias[0]
	for i := 0; i < p.n; i++ {
		s += p.alpha[i] * k[i]
	}
	return clampRound(s)
}

// decode replicates svm.Codes.Decode: nearest codeword by Hamming distance
// over the score signs, ties broken by total hinge loss.
func decode(codes [][]int8, scores []float64) int {
	best := 1
	bestHam := math.MaxInt32
	bestLoss := math.Inf(1)
	for class := 1; class <= len(codes); class++ {
		ham := 0
		loss := 0.0
		for b, want := range codes[class-1] {
			s := scores[b]
			if (s >= 0) != (want > 0) {
				ham++
			}
			if m := 1 - float64(want)*s; m > 0 {
				loss += m
			}
		}
		if ham < bestHam || (ham == bestHam && loss < bestLoss) {
			best, bestHam, bestLoss = class, ham, loss
		}
	}
	return best
}

// clampRound replicates the regression rounding into the label range.
func clampRound(v float64) int {
	u := int(math.Round(v))
	if u < 1 {
		u = 1
	}
	if u > ml.NumClasses {
		u = ml.NumClasses
	}
	return u
}

// --- Constructors --------------------------------------------------------

// flattenRows packs row slices into the flat table plus its float32 mirror
// and precomputed squared norms.
func flattenRows(rows [][]float64) (table []float64, table32, norms32 []float32, dim int, err error) {
	n := len(rows)
	if n == 0 {
		return nil, nil, nil, 0, fmt.Errorf("compiled: empty exemplar table")
	}
	dim = len(rows[0])
	if dim == 0 {
		return nil, nil, nil, 0, fmt.Errorf("compiled: zero-dimensional exemplars")
	}
	table = make([]float64, n*dim)
	table32 = make([]float32, n*dim)
	for i, r := range rows {
		if len(r) != dim {
			return nil, nil, nil, 0, fmt.Errorf("compiled: ragged exemplar table: row %d has %d features, want %d", i, len(r), dim)
		}
		copy(table[i*dim:(i+1)*dim], r)
		for j, v := range r {
			table32[i*dim+j] = float32(v)
		}
	}
	norms32 = linalg.SqNormsF32(table32, n, dim, nil)
	return table, table32, norms32, dim, nil
}

// NewNN lowers a near-neighbor database: normalized rows, their labels,
// and the voting radius (oneNN selects the pure 1-NN mode).
func NewNN(norm *ml.Norm, rows [][]float64, labels []int, radius float64, oneNN bool) (*Program, error) {
	if norm == nil {
		return nil, fmt.Errorf("compiled: nn lowering needs a normalizer")
	}
	if len(labels) != len(rows) {
		return nil, fmt.Errorf("compiled: %d labels for %d rows", len(labels), len(rows))
	}
	if !oneNN && radius <= 0 {
		return nil, fmt.Errorf("compiled: non-positive voting radius %v", radius)
	}
	table, table32, norms32, dim, err := flattenRows(rows)
	if err != nil {
		return nil, err
	}
	p := &Program{
		kind: kindNN, version: "nn/v1+f32b", norm: norm,
		n: len(rows), dim: dim, table: table, table32: table32, norms32: norms32,
		radius: radius, oneNN: oneNN,
		labels: append([]int(nil), labels...),
	}
	for i, l := range labels {
		if l < 1 || l > ml.NumClasses {
			return nil, fmt.Errorf("compiled: exemplar %d has label %d outside [1,%d]", i, l, ml.NumClasses)
		}
	}
	p.initPool()
	return p, nil
}

// KernelMachine describes a multi-class kernel classifier to lower:
// one score per output-code bit, decoded to the nearest codeword.
type KernelMachine struct {
	Norm  *ml.Norm
	Rows  [][]float64
	Sigma float64 // RBF bandwidth; <= 0 selects the linear kernel
	Alpha [][]float64
	Bias  []float64
	Codes [][]int8
	// SkipZero preserves the interpreted path's alpha == 0 skip (SMO),
	// keeping the score accumulation bit-identical.
	SkipZero bool
}

// NewKernelMachine lowers a multi-class kernel classifier.
func NewKernelMachine(km KernelMachine) (*Program, error) {
	if km.Norm == nil {
		return nil, fmt.Errorf("compiled: kernel lowering needs a normalizer")
	}
	bits := len(km.Alpha)
	if bits == 0 || len(km.Bias) != bits {
		return nil, fmt.Errorf("compiled: %d alpha rows for %d biases", bits, len(km.Bias))
	}
	if len(km.Codes) == 0 || len(km.Codes) > ml.NumClasses {
		return nil, fmt.Errorf("compiled: output code has %d classes, want 1..%d", len(km.Codes), ml.NumClasses)
	}
	for _, cw := range km.Codes {
		if len(cw) != bits {
			return nil, fmt.Errorf("compiled: codeword has %d bits, want %d", len(cw), bits)
		}
	}
	table, table32, norms32, dim, err := flattenRows(km.Rows)
	if err != nil {
		return nil, err
	}
	n := len(km.Rows)
	p := &Program{
		kind: kindKernel, version: "kern/v1+f32b", norm: km.Norm,
		n: n, dim: dim, table: table, table32: table32, norms32: norms32,
		bits: bits, bias: km.Bias, codes: km.Codes,
		sigma: km.Sigma, skipZero: km.SkipZero,
		alpha: make([]float64, bits*n), alpha32: make([]float32, bits*n),
	}
	for bit, a := range km.Alpha {
		if len(a) != n {
			return nil, fmt.Errorf("compiled: bit %d has %d coefficients for %d rows", bit, len(a), n)
		}
		for i, v := range a {
			p.alpha[bit*n+i] = v
			p.alpha32[bit*n+i] = float32(v)
		}
	}
	p.initPool()
	return p, nil
}

// Regressor describes a kernel ridge regressor to lower: one real-valued
// score rounded into the label range.
type Regressor struct {
	Norm  *ml.Norm
	Rows  [][]float64
	Sigma float64 // RBF bandwidth; <= 0 selects the linear kernel
	Alpha []float64
	Bias  float64
}

// NewRegressor lowers a kernel ridge regressor.
func NewRegressor(r Regressor) (*Program, error) {
	if r.Norm == nil {
		return nil, fmt.Errorf("compiled: regress lowering needs a normalizer")
	}
	table, table32, norms32, dim, err := flattenRows(r.Rows)
	if err != nil {
		return nil, err
	}
	n := len(r.Rows)
	if len(r.Alpha) != n {
		return nil, fmt.Errorf("compiled: %d coefficients for %d rows", len(r.Alpha), n)
	}
	p := &Program{
		kind: kindRegress, version: "reg/v1+f32b", norm: r.Norm,
		n: n, dim: dim, table: table, table32: table32, norms32: norms32,
		bias:  []float64{r.Bias},
		sigma: r.Sigma,
		alpha: make([]float64, n), alpha32: make([]float32, n),
	}
	copy(p.alpha, r.Alpha)
	for i, v := range r.Alpha {
		p.alpha32[i] = float32(v)
	}
	p.initPool()
	return p, nil
}

// ForestBuilder assembles flattened decision trees into one Program.
// Build each tree bottom-up with Leaf and Split, seal it with EndTree,
// then Finish.
type ForestBuilder struct {
	nodes  []Node
	roots  []int32
	weight []float64
}

// NewForestBuilder returns an empty builder.
func NewForestBuilder() *ForestBuilder { return &ForestBuilder{} }

// Leaf appends a leaf node and returns its index.
func (b *ForestBuilder) Leaf(label int) (int32, error) {
	if label < 0 || label > ml.NumClasses {
		return 0, fmt.Errorf("compiled: leaf label %d outside [0,%d]", label, ml.NumClasses)
	}
	b.nodes = append(b.nodes, Node{Left: -1, Right: -1, Label: int32(label)})
	return int32(len(b.nodes) - 1), nil
}

// Split appends an internal node over two already-built children and
// returns its index.
func (b *ForestBuilder) Split(feature int, threshold float64, left, right int32) (int32, error) {
	if feature < 0 {
		return 0, fmt.Errorf("compiled: negative split feature %d", feature)
	}
	n := int32(len(b.nodes))
	if left < 0 || left >= n || right < 0 || right >= n {
		return 0, fmt.Errorf("compiled: split children (%d, %d) outside built range [0,%d)", left, right, n)
	}
	b.nodes = append(b.nodes, Node{Feature: int32(feature), Left: left, Right: right, Threshold: threshold})
	return n, nil
}

// EndTree seals the current tree at the given root with its vote weight.
func (b *ForestBuilder) EndTree(root int32, weight float64) error {
	if root < 0 || root >= int32(len(b.nodes)) {
		return fmt.Errorf("compiled: tree root %d outside built range [0,%d)", root, len(b.nodes))
	}
	b.roots = append(b.roots, root)
	b.weight = append(b.weight, weight)
	return nil
}

// Finish returns the forest Program. single marks a lone plain tree whose
// leaf label is returned directly (the interpreted Tree.Predict contract)
// instead of through the weighted vote.
func (b *ForestBuilder) Finish(single bool) (*Program, error) {
	if len(b.roots) == 0 {
		return nil, fmt.Errorf("compiled: forest has no trees")
	}
	if single && len(b.roots) != 1 {
		return nil, fmt.Errorf("compiled: single-tree forest has %d trees", len(b.roots))
	}
	p := &Program{
		kind: kindForest, version: "forest/v1",
		nodes: b.nodes, roots: b.roots, weight: b.weight, single: single,
	}
	p.initPool()
	return p, nil
}
