package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metaopt/internal/features"
	"metaopt/internal/loopgen"
	"metaopt/internal/obs"
	"metaopt/internal/serve"
	"metaopt/unroll"
	"metaopt/unroll/client"
)

const (
	// serveTrainScale sizes the fixed corpus the served NN model is
	// trained on; serveQueryScale the seed-derived corpus queries come from.
	serveTrainScale = 0.3
	serveQueryScale = 1.0
	// uniqueBatch is the item count of one serve-unique request: half
	// LoopLang sources, half feature vectors.
	uniqueBatch = 16
	// hotSet is serve-repeat's working set, well inside the server's
	// 4096-entry cache.
	hotSet = 256
	// uniqueWarmRequests are sent in set-up, from item indexes the timed
	// phase never reuses.
	uniqueWarmRequests = 4
	// vecStep perturbs a vector's first feature by its round number: an
	// exact binary fraction, so distinct rounds give distinct vectors.
	vecStep = 1.0 / 1024
)

// answerLog holds one byte per unique item in 64Ki-item chunks added as
// items are issued, so the benchmark's own bookkeeping stays small next to
// the server's heap and barely moves its GC pacing. Clients write disjoint
// items; the chunk list is guarded by mu.
type answerLog struct {
	mu     sync.Mutex
	chunks []*[1 << 16]uint8
}

func (a *answerLog) chunk(k int64) *[1 << 16]uint8 {
	a.mu.Lock()
	defer a.mu.Unlock()
	for int64(len(a.chunks)) <= k>>16 {
		a.chunks = append(a.chunks, new([1 << 16]uint8))
	}
	return a.chunks[k>>16]
}

func (a *answerLog) set(k int64, factor int) { a.chunk(k)[k&0xffff] = uint8(factor) }
func (a *answerLog) get(k int64) int         { return int(a.chunk(k)[k&0xffff]) }

// serveWorkload drives serve.New + Start over loopback TCP with 2 closed-
// loop unroll/client callers. serve-unique sends 16-item batches whose
// items are distinct by construction (the cache never hits: frontend,
// features, micro-batching and predict dominate); serve-repeat sends single
// items from a 256-loop hot set warmed in set-up (the model is bypassed:
// HTTP, admission, parse-before-lookup, the cache and encoding dominate).
type serveWorkload struct {
	seed   int64
	repeat bool

	pred      *unroll.Predictor
	comp      *unroll.CompiledPredictor
	srv       *serve.Server
	cl        *client.Client
	transport *http.Transport
	sources   []boundSource
	vectors   [][]float64

	next atomic.Int64 // next unique item index
	// The factor served for each unique item and each hot-set slot (0 =
	// not answered yet); a hot slot answered twice must agree.
	uniqueServed answerLog
	hotServed    [hotSet]atomic.Int32
	mu           sync.Mutex
	bad          []string // responses that failed the wire checks
	hits         int64    // cache counters over the timed phases
	misses       int64

	// traced-slice state
	sampling  atomic.Bool
	records   []obs.RequestTraceRecord
	reqSample []any // requests kept for the codec replay
	batchHist [2]obs.HistSnapshot
}

// boundSource is a LoopLang source whose innermost loop's upper bound is a
// literal,
// split around it so a round number can be added to the trip.
type boundSource struct {
	head, tail string
	bound      int
}

func (b boundSource) with(round int64) string {
	return b.head + strconv.FormatInt(int64(b.bound)+round, 10) + b.tail
}

var boundRE = regexp.MustCompile(`for \w+ = [^\n]+? \.\. (\S+) \{`)

func newServe(seed int64, repeat bool) *serveWorkload {
	return &serveWorkload{seed: seed, repeat: repeat}
}

var (
	mCacheHits   = obs.C("serve.cache.hits")
	mCacheMisses = obs.C("serve.cache.misses")
)

// setup trains the served model on a fixed corpus, builds the query pools
// from the seed, starts the server and client, and warms: serve-repeat
// sends its whole hot set once, serve-unique a few batches of items the
// timed phase never repeats.
func (w *serveWorkload) setup() error {
	w.close()
	w.bad, w.hits, w.misses = nil, 0, 0
	w.next.Store(0)
	w.uniqueServed = answerLog{}
	for i := range w.hotServed {
		w.hotServed[i].Store(0)
	}

	train, err := loopgen.Generate(loopgen.Options{Seed: defaultSeed, LoopsScale: serveTrainScale})
	if err != nil {
		return err
	}
	d, err := unroll.CollectDataset(train, unroll.CollectOptions{Seed: defaultSeed + 100})
	if err != nil {
		return err
	}
	if w.pred, err = unroll.Train(d, unroll.TrainOptions{Algorithm: unroll.NearNeighbor}); err != nil {
		return err
	}
	if w.comp, err = unroll.Compile(w.pred); err != nil {
		return err
	}
	if err := w.pools(); err != nil {
		return err
	}
	if w.srv, err = serve.New(serve.Config{Model: w.pred}); err != nil {
		return err
	}
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.transport = &http.Transport{MaxIdleConnsPerHost: maxProcs}
	if w.cl, err = client.NewClient(client.Config{
		Endpoints: []string{"http://" + addr},
		Transport: w.transport,
	}); err != nil {
		return err
	}
	ctx := context.Background()
	if w.repeat {
		for i := 0; i < hotSet; i++ {
			if err := w.single(ctx, int64(i)); err != nil {
				return err
			}
		}
	} else {
		for i := 0; i < uniqueWarmRequests; i++ {
			if err := w.batch(ctx); err != nil {
				return err
			}
		}
	}
	return w.wireErr()
}

// pools builds the query pools from a corpus generated from the seed:
// sources with a literal loop bound, and feature vectors. Each pool keeps
// one entry per shape (loop regardless of its bound, vector regardless of
// its first feature), so adding a round number never recreates another
// entry.
func (w *serveWorkload) pools() error {
	c, err := loopgen.Generate(loopgen.Options{Seed: w.seed, LoopsScale: serveQueryScale})
	if err != nil {
		return err
	}
	w.sources, w.vectors = nil, nil
	seenSrc, seenVec := map[string]bool{}, map[string]bool{}
	mach := unroll.Itanium2()
	for _, b := range c.Benchmarks {
		for i, src := range b.Sources {
			// The innermost loop, the last one in the source, is the one
			// lowered and predicted.
			if ms := boundRE.FindAllStringSubmatchIndex(src, -1); ms != nil {
				m := ms[len(ms)-1]
				bs := boundSource{head: src[:m[2]], tail: src[m[3]:]}
				bs.bound, err = strconv.Atoi(src[m[2]:m[3]])
				// The server's cache key is the lowered loop, which drops
				// some source attributes; key the pool on the loop lowered
				// at a sentinel bound.
				l, perr := unroll.ParseKernel(bs.head + "1000003" + bs.tail)
				if err == nil && perr == nil && !seenSrc[l.String()] {
					seenSrc[l.String()] = true
					w.sources = append(w.sources, bs)
				}
			}
			v := features.Extract(b.Loops[i], mach)
			key := fmt.Sprint(v[1:])
			if !seenVec[key] {
				seenVec[key] = true
				w.vectors = append(w.vectors, v)
			}
		}
	}
	if len(w.sources) < hotSet/2 || len(w.vectors) < hotSet/2 {
		return fmt.Errorf("query pools too small: %d sources, %d vectors", len(w.sources), len(w.vectors))
	}
	return nil
}

// item returns unique item k: even k are sources, odd k vectors; pool
// entry (k/2) mod pool size, perturbed by round (k/2) / pool size.
func (w *serveWorkload) item(k int64) client.PredictRequest {
	j := k / 2
	if k%2 == 0 {
		n := int64(len(w.sources))
		return client.PredictRequest{Source: w.sources[j%n].with(j / n)}
	}
	n := int64(len(w.vectors))
	v := append([]float64(nil), w.vectors[j%n]...)
	v[0] += float64(j/n) * vecStep
	return client.PredictRequest{Features: v}
}

// hot returns hot-set slot i: even slots are sources, odd slots vectors.
func (w *serveWorkload) hot(i int64) client.PredictRequest {
	if i%2 == 0 {
		return client.PredictRequest{Source: w.sources[i/2].with(0)}
	}
	return client.PredictRequest{Features: w.vectors[i/2]}
}

func (w *serveWorkload) fail(format string, args ...any) {
	w.mu.Lock()
	if len(w.bad) < 10 {
		w.bad = append(w.bad, fmt.Sprintf(format, args...))
	}
	w.mu.Unlock()
}

func (w *serveWorkload) wireErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.bad) > 0 {
		return fmt.Errorf("bad responses: %s", strings.Join(w.bad, "; "))
	}
	return nil
}

// batch sends one serve-unique request of the next uniqueBatch items and
// records every answer; a non-200 or a malformed answer is an error.
func (w *serveWorkload) batch(ctx context.Context) error {
	k0 := w.next.Add(uniqueBatch) - uniqueBatch
	reqs := make([]client.PredictRequest, uniqueBatch)
	for i := range reqs {
		reqs[i] = w.item(k0 + int64(i))
	}
	resp, err := w.cl.PredictBatch(ctx, reqs)
	if err != nil {
		return err
	}
	if resp.Fingerprint != w.pred.Fingerprint() || len(resp.Results) != uniqueBatch {
		w.fail("batch at item %d: fingerprint %q, %d results", k0, resp.Fingerprint, len(resp.Results))
		return nil
	}
	for i, r := range resp.Results {
		if r.Error != "" || r.Factor < 1 || r.Factor > 8 {
			w.fail("item %d: factor %d error %q", k0+int64(i), r.Factor, r.Error)
		}
		w.uniqueServed.set(k0+int64(i), r.Factor)
	}
	w.sample(func() any { return client.BatchRequest{Loops: reqs} })
	return nil
}

// single sends hot-set slot i as one /v1/predict request.
func (w *serveWorkload) single(ctx context.Context, i int64) error {
	req := w.hot(i)
	resp, err := w.cl.Predict(ctx, req)
	if err != nil {
		return err
	}
	if resp.Fingerprint != w.pred.Fingerprint() || resp.Factor < 1 || resp.Factor > 8 {
		w.fail("hot slot %d: fingerprint %q factor %d", i, resp.Fingerprint, resp.Factor)
	}
	if !w.hotServed[i].CompareAndSwap(0, int32(resp.Factor)) {
		if prev := w.hotServed[i].Load(); prev != int32(resp.Factor) {
			w.fail("hot slot %d: served %d, earlier %d", i, resp.Factor, prev)
		}
	}
	w.sample(func() any { return req })
	return nil
}

// sample keeps a few hundred requests for the traced run's codec replay.
func (w *serveWorkload) sample(req func() any) {
	if !w.sampling.Load() {
		return
	}
	w.mu.Lock()
	if len(w.reqSample) < 256 {
		w.reqSample = append(w.reqSample, req())
	}
	w.mu.Unlock()
}

// timed runs the closed loop: one client per core, each sending its next
// request when the previous one answered. With a tracer it records a span
// per request and samples the server's request-trace ring.
func (w *serveWorkload) timed(d time.Duration, tr *tracer) (*opLog, error) {
	clients := runtime.GOMAXPROCS(0)
	h0, m0 := mCacheHits.Value(), mCacheMisses.Value()
	stop := make(chan struct{})
	var samplerDone chan struct{}
	if tr != nil {
		w.records = nil
		w.sampling.Store(true)
		w.batchHist[0] = obs.Default.Snapshot().Histograms["serve.batch.items"]
		samplerDone = make(chan struct{})
		go w.sampleRing(stop, samplerDone)
	}
	logs := make([]*opLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(w.seed*31 + int64(c)))
			log := &opLog{}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				sp := tr.begin("client.request", 0)
				var err error
				units := int64(1)
				if w.repeat {
					err = w.single(ctx, rng.Int63n(hotSet))
				} else {
					err = w.batch(ctx)
					units = uniqueBatch
				}
				tr.end(sp)
				log.attempted++
				if err != nil {
					log.failed++
					w.fail("request: %v", err)
					continue
				}
				log.ops = append(log.ops, time.Since(t0))
				log.ends = append(log.ends, time.Since(start))
				log.units += units
			}
			logs[c] = log
		}(c)
	}
	wg.Wait()
	all := &opLog{wall: time.Since(start)}
	for _, l := range logs {
		all.merge(l)
	}
	if tr != nil {
		close(stop)
		<-samplerDone
		w.sampling.Store(false)
		w.batchHist[1] = obs.Default.Snapshot().Histograms["serve.batch.items"]
	}
	w.hits += mCacheHits.Value() - h0
	w.misses += mCacheMisses.Value() - m0
	return all, nil
}

// sampleRing copies the server's request-trace ring every 10ms until stop
// closes, keeping each request's record once.
func (w *serveWorkload) sampleRing(stop, done chan struct{}) {
	defer close(done)
	seen := map[string]bool{}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for _, r := range obs.DefaultRequests.Snapshot() {
			if !seen[r.ID] {
				seen[r.ID] = true
				w.records = append(w.records, r)
			}
		}
	}
}

// check verifies every answered item against the library through the
// same evaluation path the server uses — sources through the float32
// batch path (CompiledPredictor.PredictBatchInto, independent of batch
// position), vectors through the exact PredictFeatures — and applies the
// traffic gate on the cache hit rate.
func (w *serveWorkload) check() error {
	if err := w.wireErr(); err != nil {
		return err
	}
	total := w.hits + w.misses
	if w.repeat {
		if total == 0 || 100*float64(w.hits) < 99*float64(total) {
			return fmt.Errorf("traffic gate: serve-repeat cache hit rate %d/%d is below 99%%", w.hits, total)
		}
	} else if w.hits != 0 {
		return fmt.Errorf("traffic gate: serve-unique saw %d cache hits, want 0", w.hits)
	}
	want, err := w.expected()
	if err != nil {
		return err
	}
	answered := 0
	for k := range want {
		if got := w.served(int64(k)); got != 0 {
			answered++
			if got != want[k] {
				return fmt.Errorf("item %d: served factor %d, library gives %d", k, got, want[k])
			}
		}
	}
	if answered == 0 {
		return fmt.Errorf("no answers")
	}
	return nil
}

// served is the factor answered for unique item or hot slot k (0: none).
func (w *serveWorkload) served(k int64) int {
	if w.repeat {
		return int(w.hotServed[k].Load())
	}
	return w.uniqueServed.get(k)
}

// expected returns the library's factor for every index sent so far,
// computed on all cores.
func (w *serveWorkload) expected() ([]int, error) {
	n := int64(hotSet)
	req := w.hot
	if !w.repeat {
		n, req = w.next.Load(), w.item
	}
	facts := make([]int, n)
	workers := int64(runtime.GOMAXPROCS(0))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := int64(0); g < workers; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			ctx := context.Background()
			var loops []*unroll.Loop
			var idx []int64
			flush := func() error {
				out := make([]int, len(loops))
				if err := w.comp.PredictBatchInto(ctx, loops, out); err != nil {
					return err
				}
				for i, f := range out {
					facts[idx[i]] = f
				}
				loops, idx = loops[:0], idx[:0]
				return nil
			}
			for k := g; k < n; k += workers {
				r := req(k)
				if r.Features != nil {
					f, err := w.comp.PredictFeatures(r.Features)
					if err != nil {
						errs[g] = err
						return
					}
					facts[k] = f
					continue
				}
				l, err := unroll.ParseKernel(r.Source)
				if err != nil {
					errs[g] = err
					return
				}
				loops, idx = append(loops, l), append(idx, k)
				if len(loops) == 64 {
					if errs[g] = flush(); errs[g] != nil {
						return
					}
				}
			}
			if len(loops) > 0 {
				errs[g] = flush()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return facts, nil
}

// serveTailOps is far below the ops a default-length serve run makes
// (thousands of requests per window): the rule gives p99.
const serveTailOps = 1000

func (w *serveWorkload) tailPct() float64 { return tailPercentile(serveTailOps) }

func (w *serveWorkload) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.srv.Shutdown(ctx) // a failed drain leaves nothing to clean up here
		cancel()
		w.srv = nil
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
		w.transport = nil
	}
}

// layers reads the server's stage splits from the sampled request-trace
// ring, replays a sample of the items through the library's frontend,
// feature and predict functions (each replay must reproduce the served
// factor), times the client's wire codec, and measures obs overhead by
// alternating obs-on and obs-off slices of the same traffic.
func (w *serveWorkload) layers(tc *traceContext) (map[string]float64, error) {
	if len(w.records) == 0 {
		return nil, fmt.Errorf("no request traces sampled")
	}
	vals := map[string]float64{
		"serve.cache_hit_pct": tc.hitPct("serve.cache"),
		"client.retries":      float64(tc.counters["client.retries"]),
	}
	stages, serverPerReq := stageTimes(w.records)
	for _, s := range []string{"admission", "queue_wait", "batch_assembly", "cache_lookup", "predict", "encode"} {
		vals["serve."+s+"_us"] = us(stages["serve."+s].mean())
	}
	if h0, h1 := w.batchHist[0], w.batchHist[1]; h1.Count > h0.Count {
		vals["serve.batch_items_mean"] = float64(h1.Sum-h0.Sum) / float64(h1.Count-h0.Count)
	}

	if err := w.replayItems(vals); err != nil {
		return nil, err
	}
	codec, err := w.codec()
	if err != nil {
		return nil, err
	}
	vals["client.codec_us"] = us(codec)

	var on, off time.Duration
	var nOn, nOff int
	for i := 0; i < 4; i++ {
		restore := obs.SetEnabled(i%2 == 0)
		log, err := w.timed(1500*time.Millisecond, nil)
		restore()
		if err != nil {
			return nil, err
		}
		var sum time.Duration
		for _, d := range log.ops {
			sum += d
		}
		if i%2 == 0 {
			on, nOn = on+sum, nOn+len(log.ops)
		} else {
			off, nOff = off+sum, nOff+len(log.ops)
		}
	}
	mOn, mOff := meanOf(on, nOn), meanOf(off, nOff)
	vals["obs.overhead_pct"] = 100 * (mOn.Seconds() - mOff.Seconds()) / mOff.Seconds()
	vals["trace.coverage_pct"] = tc.coverage(serverPerReq + codec)
	return vals, nil
}

// stageTimes turns sampled request traces into spans — the request's
// server time as the root, each stage under it, admission under the
// queue wait that encloses it — and returns each stage's self time and the
// mean server time per request.
func stageTimes(recs []obs.RequestTraceRecord) (map[string]layerTime, time.Duration) {
	var spans []span
	var total time.Duration
	for _, r := range recs {
		root := len(spans) + 1
		spans = append(spans, span{ID: root, Name: "serve.request", End: time.Duration(r.TotalNS)})
		total += time.Duration(r.TotalNS)
		st := r.Stages()
		queue := 0
		for _, s := range st {
			if s.Name == "queue_wait" {
				queue = len(spans) + 1
				spans = append(spans, span{ID: queue, Parent: root, Name: "serve.queue_wait",
					Start: time.Duration(s.StartNS), End: time.Duration(s.StartNS + s.DurNS)})
			}
		}
		for _, s := range st {
			if s.Name == "queue_wait" {
				continue
			}
			parent := root
			if s.Name == "admission" && queue != 0 {
				parent = queue
			}
			spans = append(spans, span{ID: len(spans) + 1, Parent: parent, Name: "serve." + s.Name,
				Start: time.Duration(s.StartNS), End: time.Duration(s.StartNS + s.DurNS)})
		}
	}
	return selfTimes(spans), meanOf(total, len(recs))
}

// replayItems runs up to 256 answered sources and vectors through the
// library layer by layer.
func (w *serveWorkload) replayItems(vals map[string]float64) error {
	req := w.item
	if w.repeat {
		req = w.hot
	}
	served := w.served
	n := int64(hotSet)
	if !w.repeat {
		n = w.next.Load()
	}
	var srcK, vecK []int64
	for k := int64(0); k < n && (len(srcK) < 256 || len(vecK) < 256); k++ {
		if served(k) == 0 {
			continue
		}
		if k%2 == 0 && len(srcK) < 256 {
			srcK = append(srcK, k)
		} else if k%2 == 1 && len(vecK) < 256 {
			vecK = append(vecK, k)
		}
	}
	mach := unroll.Itanium2()
	loops := make([]*unroll.Loop, len(srcK))
	var parse, extract, single, batch time.Duration
	for i, k := range srcK {
		t0 := time.Now()
		l, err := unroll.ParseKernel(req(k).Source)
		parse += time.Since(t0)
		if err != nil {
			return err
		}
		loops[i] = l
		t0 = time.Now()
		features.Extract(l, mach)
		extract += time.Since(t0)
	}
	for _, k := range vecK {
		t0 := time.Now()
		f, err := w.comp.PredictFeatures(req(k).Features)
		single += time.Since(t0)
		if err != nil {
			return err
		}
		if f != served(k) {
			return fmt.Errorf("replay of item %d: exact predict gives %d, served %d", k, f, served(k))
		}
	}
	const chunk = uniqueBatch / 2
	out := make([]int, chunk)
	for i := 0; i+chunk <= len(loops); i += chunk {
		t0 := time.Now()
		if err := w.comp.PredictBatchInto(context.Background(), loops[i:i+chunk], out); err != nil {
			return err
		}
		batch += time.Since(t0)
		for j, f := range out {
			if k := srcK[i+j]; f != served(k) {
				return fmt.Errorf("replay of item %d: batch predict gives %d, served %d", k, f, served(k))
			}
		}
	}
	vals["lang.parse_lower_us"] = us(meanOf(parse, len(srcK)))
	vals["features.extract_us"] = us(meanOf(extract, len(srcK)))
	vals["compiled.predict_single_us"] = us(meanOf(single, len(vecK)))
	vals["compiled.predict_batch_us_per_item"] = us(meanOf(batch, len(srcK)/chunk*chunk))
	return nil
}

// codec times the client's wire work per request: encoding the sampled
// requests and decoding a response of the matching shape.
func (w *serveWorkload) codec() (time.Duration, error) {
	var resp []byte
	var err error
	if w.repeat {
		resp, err = json.Marshal(client.PredictResponse{Factor: 4, Loop: "L000", Cached: true,
			ModelVersion: 1, Fingerprint: w.pred.Fingerprint()})
	} else {
		br := client.BatchResponse{Fingerprint: w.pred.Fingerprint(), ModelVersion: 1}
		for i := 0; i < uniqueBatch; i++ {
			br.Results = append(br.Results, client.BatchResult{Factor: 4, Loop: "L000"})
		}
		resp, err = json.Marshal(br)
	}
	if err != nil || len(w.reqSample) == 0 {
		return 0, fmt.Errorf("codec replay: %v (%d sampled requests)", err, len(w.reqSample))
	}
	t0 := time.Now()
	for _, r := range w.reqSample {
		if _, err := json.Marshal(r); err != nil {
			return 0, err
		}
		var into any = &client.BatchResponse{}
		if w.repeat {
			into = &client.PredictResponse{}
		}
		if err := json.Unmarshal(resp, into); err != nil {
			return 0, err
		}
	}
	return meanOf(time.Since(t0), len(w.reqSample)), nil
}
