package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"metaopt/internal/core"
	"metaopt/internal/features"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/ml/greedy"
	"metaopt/internal/ml/mis"
	"metaopt/internal/ml/nn"
	"metaopt/internal/ml/svm"
	"metaopt/internal/obs"
	"metaopt/internal/sim"
)

// The learn workload's fixed corpus and the cmd/experiments configuration
// it reproduces: -scale 0.05 -runs 30, every other setting at its default.
const (
	learnScale = 0.05
	learnRuns  = 30
)

// experimentsSeed2005 is the output of
//
//	go run ./cmd/experiments -run table4,table2,figure4,figure5 \
//	    -scale 0.05 -runs 30 -seed 2005 -json -q
//
// which a learn pass at the default seed must reproduce exactly.
//
//go:embed testdata/experiments_seed2005.json
var experimentsSeed2005 []byte

// learnWorkload labels one fixed corpus in set-up; each op is one pass of
// the paper's learning experiments, calling the core functions directly
// (experiments.Env would cache their results). The speedup folds hit the
// timer caches warmed in set-up, so the ML layers do all the work.
type learnWorkload struct {
	seed      int64
	c         *loopgen.Corpus
	tOff, tOn *sim.Timer
	lOff, lOn *core.Labels
	dOff, dOn *ml.Dataset
	first     *learnPass
	firstJSON []byte
	passes    int
	mismatch  error
}

// learnPass is one pass's results, in the shape cmd/experiments prints.
type learnPass struct {
	Table4 table4Result
	Table2 struct{ Table *core.Table2 }
	Fig4   figureResult
	Fig5   figureResult
	fs     *core.FeatureSelection // kept for the traced run's replays
}

type table4Result struct {
	NN, SVM []struct {
		Name  string
		Error float64
	}
}

type figureResult struct {
	SWP     bool
	Summary *core.SpeedupSummary
}

func newLearn(seed int64, dir string) workload { return &learnWorkload{seed: seed} }

// setup labels the fixed corpus in both modes, builds both datasets as
// experiments.Env does, and runs one untimed warm-up pass whose outputs
// every timed pass must equal.
func (w *learnWorkload) setup() error {
	c, err := loopgen.Generate(loopgen.Options{Seed: defaultSeed, LoopsScale: learnScale})
	if err != nil {
		return err
	}
	w.c = c
	for _, mode := range []struct {
		swp bool
		t   **sim.Timer
		lb  **core.Labels
		d   **ml.Dataset
	}{{false, &w.tOff, &w.lOff, &w.dOff}, {true, &w.tOn, &w.lOn, &w.dOn}} {
		cfg := sim.DefaultConfig()
		cfg.SWP = mode.swp
		cfg.Runs = learnRuns
		t := sim.NewTimer(cfg)
		lb, err := core.CollectLabels(c, t, defaultSeed+100)
		if err != nil {
			return err
		}
		d := lb.Dataset(t)
		if err := d.Validate(); err != nil {
			return err
		}
		d.BuildColumns()
		*mode.t, *mode.lb, *mode.d = t, lb, d
	}
	w.first, err = w.pass(nil)
	if err != nil {
		return err
	}
	w.firstJSON, err = json.Marshal(w.first)
	return err
}

// pass runs the learning experiments once with the workload's seed in
// place of cmd/experiments' -seed (the corpus and labels stay fixed).
func (w *learnWorkload) pass(tr *tracer) (*learnPass, error) {
	root := tr.begin("learn.op", 0)
	defer tr.end(root)
	p := &learnPass{}
	opt := core.DefaultSelectOptions()
	opt.Seed = w.seed
	sp := tr.begin("core.select_features", root)
	fs, err := core.SelectFeatures(w.dOff, opt)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p.fs = fs
	for _, g := range fs.GreedyNN {
		p.Table4.NN = append(p.Table4.NN, struct {
			Name  string
			Error float64
		}{features.Names[g.Feature], g.Error})
	}
	for _, g := range fs.GreedySVM {
		p.Table4.SVM = append(p.Table4.SVM, struct {
			Name  string
			Error float64
		}{features.Names[g.Feature], g.Error})
	}
	sp = tr.begin("core.evaluate_table2", root)
	p.Table2.Table, err = core.EvaluateTable2(w.lOff, w.dOff, fs.Union, w.tOff, core.EvalOptions{Seed: w.seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	so := core.DefaultSpeedupOptions()
	so.Seed = w.seed + 31
	sp = tr.begin("core.speedups.off", root)
	p.Fig4.Summary, err = core.Speedups(w.c, w.lOff, w.dOff, fs.Union, w.tOff, so)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.speedups.on", root)
	p.Fig5.SWP = true
	p.Fig5.Summary, err = core.Speedups(w.c, w.lOn, w.dOn, fs.Union, w.tOn, so)
	tr.end(sp)
	return p, err
}

func (w *learnWorkload) timed(d time.Duration, tr *tracer) (*opLog, error) {
	return sequential(d, func() (int64, error) {
		p, err := w.pass(tr)
		if err != nil {
			return 0, err
		}
		w.passes++
		if w.mismatch == nil {
			if b, err := json.Marshal(p); err != nil || !bytes.Equal(b, w.firstJSON) {
				w.mismatch = fmt.Errorf("pass %d differs from the first pass", w.passes)
			}
		}
		return 1, nil
	})
}

// check requires every pass to equal the first and, at the default seed,
// the first to equal the recorded cmd/experiments output.
func (w *learnWorkload) check() error {
	if w.mismatch != nil {
		return w.mismatch
	}
	if w.seed != defaultSeed {
		return nil
	}
	return matchExperiments(w.first, experimentsSeed2005)
}

// matchExperiments decodes cmd/experiments' JSON stream (table4, table2,
// figure4, figure5, in its step order) and compares it with the pass.
func matchExperiments(p *learnPass, recorded []byte) error {
	want := &learnPass{}
	dec := json.NewDecoder(bytes.NewReader(recorded))
	for _, v := range []any{&want.Table4, &want.Table2, &want.Fig4, &want.Fig5} {
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("recorded experiments output: %w", err)
		}
	}
	if err := dec.Decode(new(any)); err != io.EOF {
		return fmt.Errorf("recorded experiments output has trailing data")
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{{"table4", p.Table4, want.Table4}, {"table2", p.Table2, want.Table2},
		{"figure4", p.Fig4, want.Fig4}, {"figure5", p.Fig5, want.Fig5}} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Errorf("%s differs from cmd/experiments at seed %d", c.name, defaultSeed)
		}
	}
	return nil
}

// learnTailOps is the fewest passes a default-length learn run makes.
const learnTailOps = 30

func (w *learnWorkload) tailPct() float64 { return tailPercentile(learnTailOps) }

func (w *learnWorkload) close() {}

// layers replays the composite calls' inner layers with the first pass's
// inputs (each replay must reproduce the pass's results) and derives each
// composite's self time as its span minus its replayed children.
func (w *learnWorkload) layers(tc *traceContext) (map[string]float64, error) {
	own := selfTimes(tc.tr.spans)
	fs := w.first.fs
	opt := core.DefaultSelectOptions()
	if w.dOff.Len() > opt.SVMSample {
		return nil, fmt.Errorf("dataset of %d loops exceeds the greedy-SVM sample; replay would need core's sampler", w.dOff.Len())
	}
	// Each replay runs three times and reports its median: one call per
	// layer is too few to read a layer's cost from.
	timed := func(f func() error) (time.Duration, error) {
		var ts []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			ts = append(ts, float64(time.Since(t0)))
		}
		return time.Duration(median(ts)), nil
	}
	var ranked []mis.Ranked
	var gNN, gSVM []greedy.Result
	var nnPreds, svmPreds []int
	tMIS, _ := timed(func() error { ranked = mis.Rank(w.dOff, 0); return nil })
	cand0 := obs.C("greedy.candidates_scored").Value()
	tGNN, err := timed(func() (err error) { gNN, err = greedy.Select(&nn.Trainer{OneNN: true}, w.dOff, opt.TopK); return })
	if err != nil {
		return nil, err
	}
	tGSVM, err := timed(func() (err error) { gSVM, err = greedy.Select(&svm.LSSVM{}, w.dOff, opt.TopK); return })
	if err != nil {
		return nil, err
	}
	candidates := (obs.C("greedy.candidates_scored").Value() - cand0) / 3
	if !sameScores(ranked, fs.MIS) || !reflect.DeepEqual(gNN, fs.GreedyNN) || !reflect.DeepEqual(gSVM, fs.GreedySVM) {
		return nil, fmt.Errorf("feature-selection replay does not reproduce core.SelectFeatures")
	}
	sel := w.dOff.Select(fs.Union)
	tNN, err := timed(func() (err error) { nnPreds, err = ml.LOOCV(&nn.Trainer{}, sel); return })
	if err != nil {
		return nil, err
	}
	tSVM, err := timed(func() (err error) { svmPreds, err = ml.LOOCV(&svm.LSSVM{}, sel); return })
	if err != nil {
		return nil, err
	}
	nnFrac, _ := ml.RankTable(sel, nnPreds)
	svmFrac, _ := ml.RankTable(sel, svmPreds)
	if nnFrac != w.first.Table2.Table.NNFrac || svmFrac != w.first.Table2.Table.SVMFrac {
		return nil, fmt.Errorf("LOOCV replay does not reproduce core.EvaluateTable2")
	}
	// One LS-SVM training per SPEC benchmark fold, as core.Speedups trains.
	var train time.Duration
	folds := 0
	for _, b := range w.c.Spec2000() {
		tr, _ := sel.WithoutBenchmark(b.Name)
		d, err := timed(func() error { _, err := (&svm.LSSVM{}).Train(tr); return err })
		if err != nil {
			return nil, err
		}
		train += d
		folds++
	}
	kb, err := kernelBounds(sel)
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{
		"mis.rank_ms":                 ms(tMIS),
		"greedy.select_nn_ms":         ms(tGNN),
		"greedy.select_lssvm_ms":      ms(tGSVM),
		"greedy.candidates_scored":    float64(candidates),
		"nn.loocv_ms":                 ms(tNN),
		"svm.loocv_ms":                ms(tSVM),
		"svm.train_ms":                ms(meanOf(train, folds)),
		"core.evaluate_table2_ms":     ms(own["core.evaluate_table2"].mean()),
		"core.speedups_off_ms":        ms(own["core.speedups.off"].mean()),
		"core.speedups_on_ms":         ms(own["core.speedups.on"].mean()),
		"sim.compile_cache_hit_pct":   tc.hitPct("sim.compile_cache"),
		"sim.remainder_cache_hit_pct": tc.hitPct("sim.remainder_cache"),
		"par.utilization_pct":         tc.utilizationPct(),
	}
	for k, v := range kb {
		vals[k] = v
	}
	// Leaf layers per pass: the replayed selection and LOOCV calls, the
	// rest of EvaluateTable2 (its span minus the replayed LOOCVs, floored
	// at zero), and the two speedup spans.
	rest := own["core.evaluate_table2"].mean() - tNN - tSVM
	perOp := tMIS + tGNN + tGSVM + tNN + tSVM + max(rest, 0) +
		own["core.speedups.off"].mean() + own["core.speedups.on"].mean()
	vals["trace.coverage_pct"] = tc.coverage(perOp)
	return vals, nil
}

// sameScores compares two MIS rankings feature by feature. mis.Scores sums
// each feature's mutual information over a Go map, whose iteration order
// varies from call to call, so two calls on the same dataset can differ in
// the last bits of a score and swap near-tied ranks; scores must agree to
// within that summation-order rounding.
func sameScores(a, b []mis.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	score := map[int]float64{}
	for _, r := range b {
		score[r.Feature] = r.Score
	}
	for _, r := range a {
		s, ok := score[r.Feature]
		if !ok || math.Abs(r.Score-s) > 1e-12*math.Max(math.Abs(r.Score), math.Abs(s)) {
			return false
		}
	}
	return true
}
