package main

import (
	"bytes"
	"testing"
	"time"

	"metaopt/internal/par"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {60, 80}, {40, 75}, {30, 60}, {25, 60}, {10, 50}, {1, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); c.n >= 20 && opsBeyond(c.n, p) < 10 {
			t.Errorf("p%g leaves %d of %d ops beyond it", p, opsBeyond(c.n, p), c.n)
		}
	}
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	for p, want := range map[float64]time.Duration{50: 50 * time.Millisecond, 90: 90 * time.Millisecond,
		99: 99 * time.Millisecond, 100: 100 * time.Millisecond, 0: time.Millisecond} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%g of 1..100ms = %v, want %v", p, got, want)
		}
	}
	if got := opsBeyond(100, 90); got != 10 {
		t.Errorf("opsBeyond(100, p90) = %d, want 10", got)
	}
}

func TestWindowedTail(t *testing.T) {
	// 800 ops over 8s: op i ends at i×10ms and takes 1ms, except that every
	// op of the fourth second takes 50ms — a stall confined to one window.
	log := &opLog{wall: 8 * time.Second}
	for i := 0; i < 800; i++ {
		d := time.Millisecond
		if i >= 300 && i < 400 {
			d = 50 * time.Millisecond
		}
		log.ops = append(log.ops, d)
		log.ends = append(log.ends, time.Duration(i)*10*time.Millisecond)
	}
	if got, k := windowedTail(log, 90); got != time.Millisecond || k != 8 {
		t.Errorf("p90 over 8 windows = %v (%d windows), want 1ms over 8", got, k)
	}
	if got := percentile(sortedDurations(log.ops), 90); got != 50*time.Millisecond {
		t.Errorf("whole-run p90 = %v, want the stall's 50ms", got)
	}
	// 60 ops leave fewer than ten beyond p80 in any split: one window.
	short := &opLog{ops: log.ops[:60], ends: log.ends[:60], wall: 600 * time.Millisecond}
	if _, k := windowedTail(short, 80); k != 1 {
		t.Errorf("60 ops at p80 used %d windows, want 1", k)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(20), End: ms(50)}, // overlaps the first a
		{ID: 4, Parent: 1, Name: "b", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 1, Name: "b", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 6, Parent: 3, Name: "c", Start: ms(25), End: ms(35)},
		{ID: 7, Parent: 1, Name: "open", Start: ms(95), End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op": {ms(40), 1},          // 100 − union{[10,50],[60,70],[90,100]}
		"a":  {ms(20) + ms(20), 2}, // 20 + (30 − 10 covered by c)
		"b":  {ms(10) + ms(30), 2},
		"c":  {ms(10), 1},
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %v over %d calls, want %v over %d", name, got[name].self, got[name].calls, w.self, w.calls)
		}
	}
	if m := got["a"].mean(); m != ms(20) {
		t.Errorf("mean self of a = %v, want 20ms", m)
	}
}

func TestLabelDigestSameAtWidth1And2(t *testing.T) {
	dir := t.TempDir()
	var digests [2][32]byte
	for i, width := range []int{1, 2} {
		restore := par.SetLimit(width)
		op, err := labelOnce(7, 3, dir, nil)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = op.digest
	}
	if digests[0] != digests[1] {
		t.Fatal("label op digest differs between par width 1 and 2")
	}
	other, err := labelOnce(7, 4, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other.digest == digests[0] {
		t.Fatal("ops 3 and 4 labeled the same loops")
	}
}

// TestSameSeedSameOutputs runs every workload twice with one seed and
// compares what it produced.
func TestSameSeedSameOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	cfg := runConfig{seconds: 500 * time.Millisecond}
	t.Run("label", func(t *testing.T) {
		var runs [2]*labelWorkload
		for i := range runs {
			runs[i] = newLabel(5, t.TempDir()).(*labelWorkload)
			smoke(t, runs[i], cfg)
		}
		for i := 0; i < min(len(runs[0].ops), len(runs[1].ops)); i++ {
			if runs[0].ops[i].digest != runs[1].ops[i].digest {
				t.Fatalf("op %d differs between runs", i)
			}
		}
	})
	t.Run("learn", func(t *testing.T) {
		var runs [2]*learnWorkload
		for i := range runs {
			runs[i] = newLearn(5, "").(*learnWorkload)
			smoke(t, runs[i], cfg)
		}
		if !bytes.Equal(runs[0].firstJSON, runs[1].firstJSON) {
			t.Fatal("learn pass differs between runs")
		}
	})
	for _, repeat := range []bool{false, true} {
		name := map[bool]string{false: "serve-unique", true: "serve-repeat"}[repeat]
		t.Run(name, func(t *testing.T) {
			var answers [2]map[int64]int
			for i := range answers {
				w := newServe(5, repeat)
				smoke(t, w, cfg)
				answers[i] = map[int64]int{}
				n := int64(hotSet)
				if !repeat {
					n = w.next.Load()
				}
				for k := int64(0); k < n; k++ {
					if f := w.served(k); f != 0 {
						answers[i][k] = f
					}
				}
			}
			common := 0
			for k, f := range answers[0] {
				if g, ok := answers[1][k]; ok {
					common++
					if f != g {
						t.Fatalf("item %d answered %d then %d", k, f, g)
					}
				}
			}
			if common == 0 {
				t.Fatal("the two runs answered no common item")
			}
		})
	}
}

// smoke runs w end to end and requires its checks to pass.
func smoke(t *testing.T, w workload, cfg runConfig) {
	t.Helper()
	defer w.close()
	res, err := untraced(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.out.Correct || res.out.Failed != 0 {
		t.Fatalf("run failed its checks: %v", res.notes)
	}
	for _, name := range []string{"setup_s", "throughput_per_s", "op_p50_ms", "op_tail_ms"} {
		if v := res.out.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

// TestTracedSmoke makes a short traced run of every workload at the
// default seed (where learn must also match cmd/experiments).
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take seconds each")
	}
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			w := mk(defaultSeed, t.TempDir())

			defer w.close()
			dir := t.TempDir()
			res, err := traced(w, runConfig{seconds: 3 * time.Second, traceOut: dir + "/trace.json"})
			if err != nil {
				t.Fatal(err)
			}
			if !res.out.Correct {
				t.Fatalf("traced run failed its checks: %v", res.notes)
			}
			if len(res.out.Metrics) != len(layerMetrics) {
				t.Fatalf("%d layer metrics printed, want %d", len(res.out.Metrics), len(layerMetrics))
			}
			if v := res.out.Metrics["trace.coverage_pct"].Value; !(v > 0) {
				t.Errorf("trace.coverage_pct = %v", v)
			}
		})
	}
}
