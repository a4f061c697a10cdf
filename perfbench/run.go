package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"metaopt/internal/obs"
)

// workload is one benchmark input set. setup builds all state from scratch
// (closing any previous state), timed runs the closed-loop timed phase,
// check verifies every output produced so far plus the workload's traffic
// gates, and layers derives the per-layer metrics of a traced run.
type workload interface {
	setup() error
	timed(d time.Duration, tr *tracer) (*opLog, error)
	check() error
	// tailPct is the fixed percentile reported as op_tail_ms; see
	// tailPercentile for the rule it was chosen by.
	tailPct() float64
	layers(tc *traceContext) (map[string]float64, error)
	close()
}

var workloads = map[string]func(seed int64, dir string) workload{
	"label":        newLabel,
	"learn":        newLearn,
	"serve-unique": func(seed int64, dir string) workload { return newServe(seed, false) },
	"serve-repeat": func(seed int64, dir string) workload { return newServe(seed, true) },
}

type runConfig struct {
	seconds  time.Duration
	traceOut string // where a traced run writes its spans as JSON
}

// opLog is the record of one timed phase: one duration per op, the work
// units completed (loops, passes or items), and the ops attempted/failed.
type opLog struct {
	ops       []time.Duration
	ends      []time.Duration // each op's end, from the start of the phase
	units     int64
	attempted int
	failed    int
	wall      time.Duration
}

func (l *opLog) merge(o *opLog) {
	l.ops = append(l.ops, o.ops...)
	l.ends = append(l.ends, o.ends...)
	l.units += o.units
	l.attempted += o.attempted
	l.failed += o.failed
}

// sequential runs fn as a closed loop until d has elapsed: the next op
// starts only when the previous one returned. fn reports the work units the
// op completed; the op's duration covers fn alone.
func sequential(d time.Duration, fn func() (int64, error)) (*opLog, error) {
	log := &opLog{}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		units, err := fn()
		log.attempted++
		if err != nil {
			return nil, err
		}
		log.ops = append(log.ops, time.Since(t0))
		log.ends = append(log.ends, time.Since(start))
		log.units += units
	}
	log.wall = time.Since(start)
	return log, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	notes []string // human-readable lines printed before the JSON line
	out   output
}

// untraced is the end-to-end run: set up setupRepeats times, run the timed
// phase once, check the outputs, and report the end-to-end metrics.
func untraced(w workload, cfg runConfig) (*result, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rssSetup := peakRSSMB()
	log, err := w.timed(cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	rssTimed := peakRSSMB()
	res := &result{out: output{Correct: true, Attempted: log.attempted, Failed: log.failed}}
	if err := w.check(); err != nil {
		res.out.Correct = false
		res.notes = append(res.notes, "CHECK FAILED: "+err.Error())
	}
	// Peak RSS is reported for reading, not gated: where GC cycles fall
	// against allocation bursts moves it by 15-30% between identical runs.
	res.notes = append(res.notes, fmt.Sprintf("peak RSS after set-up %.1f MB, after the timed phase %.1f MB, after the checks %.1f MB",
		rssSetup, rssTimed, peakRSSMB()))
	if len(log.ops) == 0 || log.wall <= 0 {
		return nil, fmt.Errorf("timed phase completed no op")
	}
	p := w.tailPct()
	sorted := sortedDurations(log.ops)
	beyond := opsBeyond(len(sorted), p)
	tail, windows := windowedTail(log, p)
	res.notes = append(res.notes,
		fmt.Sprintf("setup_s runs: %v", setups),
		fmt.Sprintf("op_tail_ms = p%g over %d ops (%d beyond it), median of %d windows", p, len(sorted), beyond, windows),
		fmt.Sprintf("fail_pct = %.4f (%d of %d ops failed or were refused)",
			100*float64(log.failed)/float64(log.attempted), log.failed, log.attempted))
	if beyond < 10 {
		res.notes = append(res.notes, fmt.Sprintf("warning: only %d ops beyond p%g; run longer", beyond, p))
	}
	res.out.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {float64(log.units) / log.wall.Seconds(), "1/s"},
		"op_p50_ms":        {ms(percentile(sorted, 50)), "ms"},
		"op_tail_ms":       {ms(tail), "ms"},
	}
	return res, nil
}

// traceContext hands a workload's layers method what the generic traced
// run measured: the spans, the untraced op log, and the counter deltas and
// par stages of the traced slice.
type traceContext struct {
	tr       *tracer
	untraced *opLog
	counters map[string]int64 // obs counter deltas over the traced slice
	stages   []obs.StageStats // par stages recorded during the traced slice
}

func (tc *traceContext) hitPct(prefix string) float64 {
	h, m := tc.counters[prefix+".hits"], tc.counters[prefix+".misses"]
	if h+m == 0 {
		return 0
	}
	return 100 * float64(h) / float64(h+m)
}

// utilizationPct is the wall-weighted mean utilization of the par stages
// recorded during the traced slice.
func (tc *traceContext) utilizationPct() float64 {
	var busy, avail float64
	for _, s := range tc.stages {
		busy += s.BusyTotal.Seconds()
		avail += s.Wall.Seconds() * float64(s.Workers)
	}
	if avail == 0 {
		return 0
	}
	return 100 * busy / avail
}

// traced is the per-layer run, separate from the end-to-end runs: one
// set-up, an untraced slice and a traced slice of equal length, then the
// workload's replays and counters. Untraced and traced op times give
// trace.overhead_pct; the layers' self time per op against the untraced op
// time gives trace.coverage_pct.
func traced(w workload, cfg runConfig) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	slice := cfg.seconds / 3
	rt0 := readRuntime()
	un, err := w.timed(slice, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()

	tr := newTracer()
	c0 := obs.Default.Snapshot().Counters
	stages0 := len(obs.Stages())
	tl, err := w.timed(slice, tr)
	if err != nil {
		return nil, err
	}
	c1 := obs.Default.Snapshot().Counters
	tc := &traceContext{tr: tr, untraced: un, counters: map[string]int64{}}
	for k, v := range c1 {
		tc.counters[k] = v - c0[k]
	}
	if st := obs.Stages(); len(st) > stages0 {
		tc.stages = st[stages0:]
	}
	vals, err := w.layers(tc)
	if err != nil {
		return nil, err
	}
	res := &result{out: output{Correct: true, Attempted: un.attempted + tl.attempted, Failed: un.failed + tl.failed}}
	if err := w.check(); err != nil {
		res.out.Correct = false
		res.notes = append(res.notes, "CHECK FAILED: "+err.Error())
	}
	uMed := percentile(sortedDurations(un.ops), 50)
	tMed := percentile(sortedDurations(tl.ops), 50)
	vals["trace.overhead_pct"] = 100 * (tMed.Seconds() - uMed.Seconds()) / uMed.Seconds()
	vals["runtime.alloc_mb_per_op"] = float64(rt1.alloc-rt0.alloc) / (1 << 20) / float64(len(un.ops))
	if cpu := rt1.cpu - rt0.cpu; cpu > 0 {
		vals["runtime.gc_cpu_pct"] = 100 * (rt1.gcCPU - rt0.gcCPU) / cpu
	}

	res.out.Metrics = map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			res.notes = append(res.notes, fmt.Sprintf("%s: layer does not run in this workload (0)", m.name))
		}
		res.out.Metrics[m.name] = metric{v, m.unit}
	}
	for name := range vals {
		if _, ok := res.out.Metrics[name]; !ok {
			return nil, fmt.Errorf("layer metric %s is not declared", name)
		}
	}
	if err := tr.writeFile(cfg.traceOut); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("untraced ops %d (p50 %.3f ms), traced ops %d (p50 %.3f ms), %d spans",
		len(un.ops), ms(uMed), len(tl.ops), ms(tMed), len(tr.spans)))
	return res, nil
}

// coverage is the layers' self time per op as a share of the untraced
// slice's mean op time.
func (tc *traceContext) coverage(selfPerOp time.Duration) float64 {
	var sum time.Duration
	for _, d := range tc.untraced.ops {
		sum += d
	}
	mean := sum.Seconds() / float64(len(tc.untraced.ops))
	return 100 * selfPerOp.Seconds() / mean
}

type metricDef struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run prints, in the order
// of README.md's layer table.
var layerMetrics = []metricDef{
	{"swp.schedule_us", "us"}, {"swp.ii_over_mii", "ratio"},
	{"transform.unroll_us", "us"}, {"analysis.build_us", "us"}, {"sched.list_us", "us"},
	{"regalloc.run_us", "us"}, {"sim.measure_us", "us"},
	{"sim.compile_cache_hit_pct", "%"}, {"sim.remainder_cache_hit_pct", "%"},
	{"loopgen.generate_ms", "ms"}, {"colstore.write_ms", "ms"},
	{"par.utilization_pct", "%"},
	{"greedy.select_lssvm_ms", "ms"}, {"greedy.select_nn_ms", "ms"}, {"greedy.candidates_scored", "count"},
	{"mis.rank_ms", "ms"}, {"nn.loocv_ms", "ms"}, {"svm.loocv_ms", "ms"}, {"svm.train_ms", "ms"},
	{"core.evaluate_table2_ms", "ms"}, {"core.speedups_off_ms", "ms"}, {"core.speedups_on_ms", "ms"},
	{"linalg.pairwise_gflops", "GFLOP/s"}, {"linalg.pairwise_bound_pct", "%"},
	{"linalg.gram_solve_gflops", "GFLOP/s"}, {"linalg.bound_gflops", "GFLOP/s"},
	{"lang.parse_lower_us", "us"}, {"serve.cache_lookup_us", "us"},
	{"features.extract_us", "us"}, {"compiled.predict_single_us", "us"},
	{"compiled.predict_batch_us_per_item", "us"}, {"serve.predict_us", "us"},
	{"serve.queue_wait_us", "us"}, {"serve.batch_assembly_us", "us"}, {"serve.batch_items_mean", "count"},
	{"serve.admission_us", "us"}, {"serve.encode_us", "us"}, {"client.codec_us", "us"}, {"obs.overhead_pct", "%"},
	{"runtime.alloc_mb_per_op", "MB"}, {"runtime.gc_cpu_pct", "%"},
	{"serve.cache_hit_pct", "%"}, {"client.retries", "count"},
	{"trace.coverage_pct", "%"}, {"trace.overhead_pct", "%"},
}

type runtimeStats struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rs := runtimeStats{alloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU, rs.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rs
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tailLadder holds the percentiles op_tail_ms may use; p99.9 is left out
// because it swings too far between runs to gate on.
var tailLadder = []float64{99, 95, 90, 80, 75, 70, 60, 50}

// tailPercentile is the highest ladder percentile that leaves at least ten
// ops beyond it in a run of n ops. Each workload fixes its tail percentile
// with this rule from the fewest ops a run of the default length makes.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if opsBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// opsBeyond counts the ops of n ranked strictly above the p-th percentile
// (nearest-rank definition, matching percentile).
func opsBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of percentile p among n sorted values.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// windowedTail splits the timed phase into equal-time windows by op end,
// takes the p-th percentile within each and returns their median: a short
// stall moves one window's tail, not the metric. It uses the most windows
// (8, 4, 2 or 1) that leave at least ten ops beyond p in every window.
func windowedTail(log *opLog, p float64) (time.Duration, int) {
	for _, k := range []int{8, 4, 2, 1} {
		wins := make([][]time.Duration, k)
		for i, d := range log.ops {
			wi := min(int(int64(k)*int64(log.ends[i])/int64(log.wall)), k-1)
			wins[wi] = append(wins[wi], d)
		}
		tails := make([]float64, 0, k)
		for _, win := range wins {
			if k > 1 && opsBeyond(len(win), p) < 10 {
				break
			}
			tails = append(tails, float64(percentile(sortedDurations(win), p)))
		}
		if len(tails) == k {
			return time.Duration(median(tails)), k
		}
	}
	return 0, 0
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// meanOf is total/n as a duration (0 when n is 0).
func meanOf(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
