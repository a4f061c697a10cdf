package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"metaopt/internal/analysis"
	"metaopt/internal/colstore"
	"metaopt/internal/core"
	"metaopt/internal/ir"
	"metaopt/internal/lang"
	"metaopt/internal/loopgen"
	"metaopt/internal/ml"
	"metaopt/internal/obs"
	"metaopt/internal/par"
	"metaopt/internal/regalloc"
	"metaopt/internal/sched"
	"metaopt/internal/sim"
	"metaopt/internal/swp"
	"metaopt/internal/transform"
)

// labelScale sizes one label op: a scale-0.05 corpus is 144 loops over the
// 72 benchmarks, a few hundred milliseconds of labeling on two workers.
const labelScale = 0.05

// labelReplayOps is how many traced label ops a traced run replays through
// the substrate's layer functions.
const labelReplayOps = 2

// labelWorkload generates a fresh corpus slice per op, labels it in
// SWP-off and SWP-on mode with fresh timers, builds the SWP-off dataset
// and writes it as colstore. The compiler substrate does nearly all the
// work; the ML layers none.
type labelWorkload struct {
	seed int64
	dir  string
	ops  []*labelOp // every timed op, in order
	keep []*labelOp // traced ops kept whole for the replay
}

// labelOp is one op's outputs. The corpus and timers are kept only for
// the ops a traced run replays.
type labelOp struct {
	index   int
	corpus  *loopgen.Corpus
	off, on *sim.Timer
	lOff    *core.Labels
	lOn     *core.Labels
	data    *ml.Dataset
	path    string
	digest  [32]byte
	loops   int
}

func newLabel(seed int64, dir string) workload { return &labelWorkload{seed: seed, dir: dir} }

// opSeed derives the corpus seed of op i from the workload seed, so every
// op labels loops no earlier op labeled (SplitMix64 finalizer).
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func labelTimer(swpOn bool) *sim.Timer {
	cfg := sim.DefaultConfig()
	cfg.SWP = swpOn
	return sim.NewTimer(cfg)
}

var mCompileMisses = obs.C("sim.compile_cache.misses")

// labelOnce runs op i: generate, label in both modes, build the dataset,
// write it as colstore. It checks the label invariants and that every
// (loop, factor, mode) was compiled afresh, and digests the outputs.
func labelOnce(seed int64, i int, dir string, tr *tracer) (*labelOp, error) {
	root := tr.begin("label.op", 0)
	defer tr.end(root)
	s := opSeed(seed, i)
	misses0 := mCompileMisses.Value()

	sp := tr.begin("loopgen.generate", root)
	c, err := loopgen.Generate(loopgen.Options{Seed: s, LoopsScale: labelScale})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	op := &labelOp{index: i, corpus: c, off: labelTimer(false), on: labelTimer(true)}
	sp = tr.begin("core.collect_labels.off", root)
	op.lOff, err = core.CollectLabels(c, op.off, s+100)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.collect_labels.on", root)
	op.lOn, err = core.CollectLabels(c, op.on, s+100)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.dataset", root)
	op.data = op.lOff.Dataset(op.off)
	tr.end(sp)
	op.path = filepath.Join(dir, fmt.Sprintf("label-%d.col", i))
	sp = tr.begin("colstore.write", root)
	err = colstore.WriteDataset(op.path, op.data, fmt.Sprintf("perfbench label seed=%d scale=%g", s, labelScale))
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	for _, b := range c.Benchmarks {
		op.loops += len(b.Loops)
	}
	if err := checkLabels(op.lOff, op.loops); err != nil {
		return nil, fmt.Errorf("op %d SWP off: %w", i, err)
	}
	if err := checkLabels(op.lOn, op.loops); err != nil {
		return nil, fmt.Errorf("op %d SWP on: %w", i, err)
	}
	if got, want := mCompileMisses.Value()-misses0, int64(2*transform.MaxFactor*op.loops); got != want {
		return nil, fmt.Errorf("op %d compiled %d (loop, factor, mode) triples, want %d: labels were reused", i, got, want)
	}
	file, err := os.ReadFile(op.path)
	if err != nil {
		return nil, err
	}
	op.digest = labelDigest(file, op.lOff, op.lOn)
	return op, nil
}

// checkLabels verifies the invariants every label must satisfy: all loops
// labeled, every cycle count positive, Best the arg-min of the eight
// cycle counts with ties to the lowest factor, and Kept implying Usable.
func checkLabels(lb *core.Labels, loops int) error {
	if len(lb.Order) != loops {
		return fmt.Errorf("%d loops labeled, want %d", len(lb.Order), loops)
	}
	for _, ll := range lb.Order {
		best := 1
		for u := 1; u <= transform.MaxFactor; u++ {
			if ll.Cycles[u] <= 0 {
				return fmt.Errorf("%s/%s: factor %d has %d cycles", ll.Benchmark, ll.Loop.Name, u, ll.Cycles[u])
			}
			if ll.Cycles[u] < ll.Cycles[best] {
				best = u
			}
		}
		if ll.Best != best {
			return fmt.Errorf("%s/%s: Best = %d, arg-min is %d", ll.Benchmark, ll.Loop.Name, ll.Best, best)
		}
		if ll.Kept && !ll.Usable {
			return fmt.Errorf("%s/%s: kept but not usable", ll.Benchmark, ll.Loop.Name)
		}
	}
	return nil
}

func labelDigest(file []byte, lbs ...*core.Labels) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, lb := range lbs {
		for _, ll := range lb.Order {
			h.Write([]byte(ll.Benchmark + "/" + ll.Loop.Name + "\x00"))
			for _, c := range ll.Cycles {
				binary.LittleEndian.PutUint64(buf[:], uint64(c))
				h.Write(buf[:])
			}
			fmt.Fprintf(h, "%d %t %t;", ll.Best, ll.Usable, ll.Kept)
		}
	}
	h.Write(file)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// setup runs one untimed warm-up op, so a label run does not start cold.
func (w *labelWorkload) setup() error {
	op, err := labelOnce(w.seed, -1, w.dir, nil)
	if err != nil {
		return err
	}
	return os.Remove(op.path)
}

func (w *labelWorkload) timed(d time.Duration, tr *tracer) (*opLog, error) {
	return sequential(d, func() (int64, error) {
		op, err := labelOnce(w.seed, len(w.ops), w.dir, tr)
		if err != nil {
			return 0, err
		}
		if tr != nil && len(w.keep) < labelReplayOps {
			w.keep = append(w.keep, op)
		} else {
			op.corpus, op.off, op.on, op.lOff, op.lOn = nil, nil, nil, nil, nil
		}
		w.ops = append(w.ops, op)
		return int64(op.loops), nil
	})
}

// check reads every op's colstore file back and compares it with the
// dataset written, then labels op 0 again and requires bit-identical
// outputs.
func (w *labelWorkload) check() error {
	if len(w.ops) == 0 {
		return fmt.Errorf("no label op ran")
	}
	for _, op := range w.ops {
		got, err := colstore.Load(op.path)
		if err != nil {
			return fmt.Errorf("op %d: %w", op.index, err)
		}
		if err := sameDataset(got, op.data); err != nil {
			return fmt.Errorf("op %d colstore read-back: %w", op.index, err)
		}
	}
	again, err := labelOnce(w.seed, 0, w.dir, nil)
	if err != nil {
		return err
	}
	if again.digest != w.ops[0].digest {
		return fmt.Errorf("op 0 labeled again is not bit-identical to the first labeling")
	}
	return nil
}

func sameDataset(got, want *ml.Dataset) error {
	if got.Len() != want.Len() || len(got.FeatureNames) != len(want.FeatureNames) {
		return fmt.Errorf("%d examples × %d features, want %d × %d",
			got.Len(), len(got.FeatureNames), want.Len(), len(want.FeatureNames))
	}
	for i := range want.Examples {
		g, x := got.Examples[i], want.Examples[i]
		if g.Name != x.Name || g.Benchmark != x.Benchmark || g.Label != x.Label || g.Cycles != x.Cycles ||
			len(g.Features) != len(x.Features) {
			return fmt.Errorf("example %d differs", i)
		}
		for j := range x.Features {
			if math.Float64bits(g.Features[j]) != math.Float64bits(x.Features[j]) {
				return fmt.Errorf("example %d feature %d differs", i, j)
			}
		}
	}
	return nil
}

// labelTailOps is the fewest ops a default-length label run makes.
const labelTailOps = 60

func (w *labelWorkload) tailPct() float64 { return tailPercentile(labelTailOps) }

func (w *labelWorkload) close() {}

// layers replays the kept ops through the substrate's layer functions and
// adds the benchmark's own spans and the program's cache counters.
func (w *labelWorkload) layers(tc *traceContext) (map[string]float64, error) {
	if len(w.keep) == 0 {
		return nil, fmt.Errorf("no traced label op to replay")
	}
	own := selfTimes(tc.tr.spans)
	vals := map[string]float64{
		"loopgen.generate_ms":         ms(own["loopgen.generate"].mean()),
		"colstore.write_ms":           ms(own["colstore.write"].mean()),
		"sim.compile_cache_hit_pct":   tc.hitPct("sim.compile_cache"),
		"sim.remainder_cache_hit_pct": tc.hitPct("sim.remainder_cache"),
		"par.utilization_pct":         tc.utilizationPct(),
	}
	rp := &replay{tr: newTracer()}
	var measure time.Duration
	measures, parses := 0, 0
	var parse time.Duration
	for _, op := range w.keep {
		for _, t := range []*sim.Timer{op.off, op.on} {
			if err := rp.op(op, t); err != nil {
				return nil, err
			}
			d, n, err := timeMeasure(op.corpus, t)
			if err != nil {
				return nil, err
			}
			measure += d
			measures += n
		}
		d, n, err := timeParse(op.corpus)
		if err != nil {
			return nil, err
		}
		parse += d
		parses += n
	}
	rs := selfTimes(rp.tr.spans)
	vals["swp.schedule_us"] = us(rs["swp.schedule"].mean())
	vals["swp.ii_over_mii"] = rp.iiOverMII / float64(rp.pipelined)
	vals["transform.unroll_us"] = us(rs["transform.unroll"].mean())
	vals["analysis.build_us"] = us(rs["analysis.build"].mean())
	vals["sched.list_us"] = us(rs["sched.list"].mean())
	vals["regalloc.run_us"] = us(rs["regalloc.run"].mean())
	vals["sim.measure_us"] = us(meanOf(measure, measures))
	vals["lang.parse_lower_us"] = us(meanOf(parse, parses))

	// Per op: the op's own leaf spans, plus the substrate's replayed CPU
	// time and the measurement time spread over the pool's width (the op
	// labels on par.Limit workers).
	var substrate time.Duration
	for _, name := range []string{"sim.compile", "transform.unroll", "analysis.build", "swp.schedule", "sched.list", "regalloc.run"} {
		substrate += rs[name].self
	}
	width := time.Duration(par.Limit())
	perOp := (substrate+measure)/time.Duration(len(w.keep))/width +
		own["loopgen.generate"].mean() + own["core.dataset"].mean() + own["colstore.write"].mean()
	vals["trace.coverage_pct"] = tc.coverage(perOp)
	return vals, nil
}

// timeMeasure times Timer.MeasureScaled for every (loop, factor) of the
// corpus on the op's already warm timer: the measurement layer alone.
func timeMeasure(c *loopgen.Corpus, t *sim.Timer) (time.Duration, int, error) {
	n := 0
	t0 := time.Now()
	for _, b := range c.Benchmarks {
		rng := rand.New(rand.NewSource(int64(len(b.Name))))
		for _, l := range b.Loops {
			for u := 1; u <= transform.MaxFactor; u++ {
				if _, err := t.MeasureScaled(l, u, rng, b.NoiseScale); err != nil {
					return 0, 0, err
				}
				n++
			}
		}
	}
	return time.Since(t0), n, nil
}

// timeParse times the frontend (parse + lower) over the corpus sources.
func timeParse(c *loopgen.Corpus) (time.Duration, int, error) {
	n := 0
	t0 := time.Now()
	for _, b := range c.Benchmarks {
		for _, src := range b.Sources {
			k, err := lang.ParseKernel(src)
			if err != nil {
				return 0, 0, err
			}
			if _, err := lang.Lower(k); err != nil {
				return 0, 0, err
			}
			n++
		}
	}
	return time.Since(t0), n, nil
}

// replay recompiles every (loop, factor) of an op through the substrate's
// public layer functions in sim's pipeline order — unroll, dependence
// analysis, then modulo scheduling or list scheduling plus register
// allocation — with a span around each call, and requires each replayed
// period and II to equal the timer's Stats for that (loop, factor).
type replay struct {
	tr        *tracer // the replay's own spans, kept apart from the ops'
	iiOverMII float64
	pipelined int
}

func (r *replay) op(op *labelOp, t *sim.Timer) error {
	type acc struct {
		ratio float64
		n     int
	}
	benches := op.corpus.Benchmarks
	accs := make([]acc, len(benches))
	err := par.ForEach(len(benches), func(bi int) error {
		for _, l := range benches[bi].Loops {
			lr := &loopReplay{tr: r.tr, l: l, cfg: t.Cfg}
			for u := 1; u <= transform.MaxFactor; u++ {
				period, ii, mii, err := lr.compile(u)
				if err != nil {
					return err
				}
				st, err := t.Stats(l, u)
				if err != nil {
					return err
				}
				if math.Float64bits(period) != math.Float64bits(st.Period) || ii != st.II {
					return fmt.Errorf("replay of %s/%s u=%d swp=%t: period %v II %d, Stats says period %v II %d",
						l.Benchmark, l.Name, u, t.Cfg.SWP, period, ii, st.Period, st.II)
				}
				if mii > 0 {
					accs[bi].ratio += float64(ii) / float64(mii)
					accs[bi].n++
				}
			}
		}
		return nil
	})
	for _, a := range accs {
		r.iiOverMII += a.ratio
		r.pipelined += a.n
	}
	return err
}

// loopReplay carries the per-loop work sim shares across factors: the
// rolled body's recurrence ratio and the rolled remainder's cost.
type loopReplay struct {
	tr      *tracer
	l       *ir.Loop
	cfg     *sim.Config
	rn, rd  int
	recDone bool
	rem     float64
	remDone bool
}

func (r *loopReplay) span(name string, parent int, f func()) {
	t0 := time.Now()
	f()
	r.tr.add(name, parent, t0, time.Now())
}

// compile mirrors sim's compile of (l, u) and returns the period per
// source iteration, the II and the MII (both 0 when not pipelined).
func (r *loopReplay) compile(u int) (period float64, ii, mii int, err error) {
	l, m, cfg := r.l, r.cfg.Mach, r.cfg
	root := r.tr.begin("sim.compile", 0)
	defer r.tr.end(root)
	var unrolled *ir.Loop
	r.span("transform.unroll", root, func() { unrolled, _, err = transform.UnrollPrechecked(l, u) })
	if err != nil {
		return 0, 0, 0, err
	}
	var g *analysis.Graph
	r.span("analysis.build", root, func() { g = analysis.Build(unrolled, m) })

	usePipeline := cfg.SWP && !unrolled.EarlyExit &&
		unrolled.Count(func(o *ir.Op) bool { return o.Code == ir.OpCall }) == 0
	var bodyCycles, fillDrain float64
	var codeBytes int
	if usePipeline {
		mii = r.mii(g, u, root)
		var res *swp.Result
		r.span("swp.schedule", root, func() { res, err = swp.Schedule(g, mii) })
		if err != nil {
			return 0, 0, 0, err
		}
		ii = res.II
		bodyCycles = float64(res.II + res.SpillCycles)
		fillDrain = float64(2 * (res.Stages - 1) * res.II)
		codeBytes = m.CodeBytes(len(unrolled.Body) * (1 + res.Stages))
	} else {
		var s *sched.Schedule
		var ra *regalloc.Result
		r.span("sched.list", root, func() { s = sched.List(g) })
		r.span("regalloc.run", root, func() { ra = regalloc.Run(s) })
		bodyCycles = float64(s.Period + ra.SpillCycles)
		codeBytes = m.CodeBytes(len(unrolled.Body) + ra.StoreOps + ra.ReloadOps)
	}

	// The rest is sim's cost model, in sim's expression order, so the
	// period compares bit for bit.
	if unrolled.EarlyExit && u > 1 {
		bodyCycles += float64((u - 1) * m.EarlyExitOverhead)
	}
	hMem, hIC, hBr := contextFactors(l)
	v := cfg.ContextVar
	if v > 0 {
		loads := 0
		for _, op := range unrolled.Body {
			if op.Code == ir.OpLoad {
				loads++
			}
		}
		bodyCycles += v * hMem * 2.2 * float64(loads) * float64(u-1) / 7
		bodyCycles += v * hBr * 2
	}
	const lineBytes = 64
	lines := (codeBytes + lineBytes - 1) / lineBytes
	icScale := 1 + 3*v*hIC
	coldPenalty := icScale * float64(lines*m.L1IMissCycles) / 2
	share := m.L1IBytes / 4
	var capacityPerBody float64
	if codeBytes > share {
		capacityPerBody = icScale * float64(m.L1IMissCycles) * float64(codeBytes-share) / float64(m.L1IBytes)
	}
	bodyCycles += capacityPerBody

	trip := l.RuntimeTrip
	if trip < 1 {
		trip = 1
	}
	var perEntry float64
	const setup = 6.0
	switch {
	case unrolled.EarlyExit:
		bodies := (trip + u - 1) / u
		perEntry = float64(bodies)*bodyCycles + setup
	default:
		bodies := trip / u
		rem := trip % u
		perEntry = float64(bodies)*bodyCycles + fillDrain + setup
		if rem > 0 {
			remCycles, err := r.remainder(root)
			if err != nil {
				return 0, 0, 0, err
			}
			perEntry += float64(rem)*remCycles + 2
		}
		if u > 1 && l.TripCount < 0 {
			perEntry += 2
		}
	}
	perEntry += coldPenalty
	return perEntry / float64(trip), ii, mii, nil
}

// mii is sim's modulo-scheduling lower bound: the resource bound, raised to
// the rolled body's recurrence ratio (induction update excluded) scaled by
// the factor. Graph.MII would be far slower and is not what sim uses.
func (r *loopReplay) mii(g *analysis.Graph, u, parent int) int {
	num, den := g.ResMII()
	mii := (num + den - 1) / den
	if !r.recDone {
		r.span("analysis.build", parent, func() {
			rg := analysis.Build(r.l.Clone(), r.cfg.Mach)
			r.rn, r.rd = rg.RecurrenceRatioExcluding(func(op *ir.Op) bool {
				return op.Code == ir.OpAdd && selfCarried(op)
			})
		})
		r.recDone = true
	}
	if r.rd > 0 && r.rn > 0 {
		if rr := (u*r.rn + r.rd - 1) / r.rd; rr > mii {
			mii = rr
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

// remainder prices one rolled iteration (list schedule + register
// allocation of the factor-1 loop), once per loop as sim does.
func (r *loopReplay) remainder(parent int) (float64, error) {
	if r.remDone {
		return r.rem, nil
	}
	var rolled *ir.Loop
	var err error
	r.span("transform.unroll", parent, func() { rolled, _, err = transform.Unroll(r.l, 1) })
	if err != nil {
		return 0, err
	}
	var g *analysis.Graph
	var s *sched.Schedule
	var ra *regalloc.Result
	r.span("analysis.build", parent, func() { g = analysis.Build(rolled, r.cfg.Mach) })
	r.span("sched.list", parent, func() { s = sched.List(g) })
	r.span("regalloc.run", parent, func() { ra = regalloc.Run(s) })
	r.rem, r.remDone = float64(s.Period+ra.SpillCycles), true
	return r.rem, nil
}

func selfCarried(op *ir.Op) bool {
	for _, a := range op.Args {
		if a.Op == op && a.Dist == 1 {
			return true
		}
	}
	return false
}

// contextFactors is sim's per-loop hidden context: three deterministic
// uniforms in [0,1) derived from the loop's identity.
func contextFactors(l *ir.Loop) (hMem, hIC, hBr float64) {
	var h uint64 = 14695981039346656037
	for _, s := range []string{l.Benchmark, "/", l.Name} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	next := func() float64 {
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	return next(), next(), next()
}
