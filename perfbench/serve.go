package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Serving rates and the latency limit, measured on a 2-vCPU Xeon (go1.24,
// two replicas, T=20, batch 8, maintenance on) and then frozen as
// absolute numbers so every commit is driven identically. There the
// ladder found a capacity of 0.85k-1.55k req/s on the natural workload
// (median 1.28k; the spread is the shared host's speed), and p99 rose
// from 5-13 ms at 190 req/s to 15-55 ms at 1.05k; low is about 15% and high
// about 55% of the median capacity, so high stays below capacity when
// the host is slow. The limit sits above the flat part of the latency
// curve, so the ladder finds the knee where the queue starts to grow
// rather than a point on a noisy slope.
const (
	lowRPS     = 190.0
	highRPS    = 700.0
	p99LimitMS = 40.0
	// ladderGrowth is the ladder's step up from the last passing rung
	// until one fails; after that it bisects. Capacity ranges from about
	// 1.2× the high rate (natural, slow host) to about 3× (act10), so the
	// steps are wide and the bisection does the resolving.
	ladderGrowth = 2.0
	// maintainTick is the generator's maintenance period: one replica is
	// aged by ageSteps and Pool.Maintain runs, as the daemon's ticker does
	// (every 10 s there). A scrub holds its replica for about 2.5 ms, so
	// at 1 s well under 1% of requests meet one and the p99 is the
	// serving tail, not the edge of the scrub-hit population.
	maintainTick = time.Second
	ageSteps     = 20000
	// lagLimitMS bounds how late the generator may run (at high load on
	// 2 vCPUs its p99 lag was about 2-5 ms); a rate run past it measured
	// the generator, not the server, and is tried again, up to
	// maxRateTries tries in all.
	lagLimitMS   = 10.0
	maxRateTries = 2
	// stealLimit is the largest share of CPU time the hypervisor may take
	// during a rate run: stolen time stalls the server's threads
	// for milliseconds at a time and lands in the tail as if the server
	// had been slow.
	stealLimit = 0.05
)

// reply is one request's outcome as the generator saw it.
type reply struct {
	status    int
	latencyMS float64 // from the request's due time to its response
	lagMS     float64 // how late the generator sent it
	handlerNS float64 // span around ServeHTTP
	body      []byte
}

// rateRun is one open-loop run at a fixed offered rate.
type rateRun struct {
	phase      string // low, high or ladder
	offered    float64
	replies    []reply
	achieved   float64
	stats      obs.ServeStats
	maintainNS []float64
	// stealFrac is the share of the host's CPU time the hypervisor took
	// from this VM while the run lasted.
	stealFrac float64
}

// valid reports whether the run measured the server rather than the
// host: the generator kept to its schedule and the hypervisor took no
// more than stealLimit of the CPU time.
func (r *rateRun) valid() bool {
	return quantile(r.lags(), 0.99) <= lagLimitMS && r.stealFrac <= stealLimit
}

// latencies returns every request's latency, with each non-2xx answer
// counted as +Inf: a refused or failed request misses any latency limit.
func (r *rateRun) latencies() []float64 {
	out := make([]float64, len(r.replies))
	for i, rep := range r.replies {
		out[i] = rep.latencyMS
		if rep.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (r *rateRun) count(status int) int {
	n := 0
	for _, rep := range r.replies {
		if rep.status == status {
			n++
		}
	}
	return n
}

func (r *rateRun) lags() []float64 {
	out := make([]float64, len(r.replies))
	for i, rep := range r.replies {
		out[i] = rep.lagMS
	}
	return out
}

// meets reports whether the run met the latency limit at its p99 with
// no growing backlog: the last tenth of the requests, which a growing
// queue delays most, must meet the limit at their median too.
func (r *rateRun) meets() bool {
	lat := r.latencies()
	return quantile(lat, 0.99) <= p99LimitMS && median(lat[len(lat)*9/10:]) <= p99LimitMS
}

// serveInputs pre-encodes the request bodies: the run's images, cycled.
type serveInputs struct {
	imgs   []*tensor.Tensor
	bodies [][]byte
}

func newServeInputs(fx *fixture) (*serveInputs, error) {
	in := &serveInputs{imgs: fx.images}
	for _, img := range fx.images {
		body, err := json.Marshal(serve.InferRequest{Input: img.Data(), Shape: img.Shape()})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// runRate drives the server's HTTP handler in-process at rps for n
// requests. Request i is due at start + i/rps whatever the server is
// doing; its latency runs from that due time. A maintenance goroutine
// ages one replica and runs Pool.Maintain every maintainTick.
func runRate(ctx context.Context, fx *fixture, in *serveInputs, phase string, rps float64, n int, tr *tracer, parent int) (*rateRun, error) {
	rec := obs.NewServeRecorder()
	clock0 := time.Now()
	srv, err := serve.New(serve.Config{
		Pool:       fx.pool,
		BatchSize:  serveBatch,
		MaxDelay:   2 * time.Millisecond,
		QueueDepth: 64,
		Rec:        rec,
		Now:        func() int64 { return int64(time.Since(clock0)) },
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler(serve.HandlerConfig{DefaultDeadline: 30 * time.Second, MaxDeadline: 2 * time.Minute})
	run := &rateRun{phase: phase, offered: rps, replies: make([]reply, n)}
	rateSpan := tr.begin(fmt.Sprintf("serve.rate.%.0f", rps), parent)

	stop := make(chan struct{})
	var maintWG sync.WaitGroup
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		tick := time.NewTicker(maintainTick)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			fx.pool.AgeReplica(i%fx.pool.Replicas(), ageSteps)
			t0 := time.Now()
			id := tr.begin("fleet.Maintain", rateSpan)
			err := fx.pool.Maintain(ctx)
			tr.end(id)
			run.maintainNS = append(run.maintainNS, float64(time.Since(t0).Nanoseconds()))
			if err != nil {
				return
			}
		}
	}()

	steal0 := readSteal()
	var wg sync.WaitGroup
	interval := float64(time.Second) / rps
	start := time.Now()
	var last time.Time
	var lastMu sync.Mutex
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			body := in.bodies[i%len(in.bodies)]
			req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
			w := httptest.NewRecorder()
			id := tr.begin("serve.Handler", rateSpan)
			h.ServeHTTP(w, req)
			tr.end(id)
			done := time.Now()
			run.replies[i] = reply{
				status:    w.Code,
				latencyMS: float64(done.Sub(due).Nanoseconds()) / 1e6,
				lagMS:     float64(sent.Sub(due).Nanoseconds()) / 1e6,
				handlerNS: float64(done.Sub(sent).Nanoseconds()),
				body:      w.Body.Bytes(),
			}
			lastMu.Lock()
			if done.After(last) {
				last = done
			}
			lastMu.Unlock()
		}(i, due, sent)
		// Let the request just sent reach admission before the next is
		// sent, as a client's send completes before its next one: a new
		// goroutine otherwise waits behind the next one to be spawned, and
		// requests are admitted (and hold tickets) out of order.
		runtime.Gosched()
	}
	wg.Wait()
	run.stealFrac = readSteal().fracSince(steal0)
	close(stop)
	maintWG.Wait()
	tr.end(rateSpan)
	if err := srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	run.achieved = float64(run.count(http.StatusOK)) / last.Sub(start).Seconds()
	run.stats = rec.Stats()
	return run, nil
}

// serveResult is what the serve-open phase measured.
type serveResult struct {
	p50Low, p99Low, p99High float64
	maxRPS                  float64
	attempted, failed       int
	verified                int
	lowTail, highTail       tail
	runs                    []rateSummary
	notes                   []string
}

// servedLatencies returns every 2xx latency of r.
func servedLatencies(r *rateRun) []float64 {
	var out []float64
	for _, rep := range r.replies {
		if rep.status == http.StatusOK {
			out = append(out, rep.latencyMS)
		}
	}
	return out
}

// rateSummary describes one rate run in the record.
type rateSummary struct {
	Phase     string  `json:"phase"`
	Offered   float64 `json:"offered_rps"`
	Achieved  float64 `json:"achieved_rps"`
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Refused   int     `json:"refused"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	LagP99MS  float64 `json:"lag_p99_ms"`
	StealFrac float64 `json:"steal_frac"`
	Valid     bool    `json:"valid"`
}

func (r *rateRun) summary() rateSummary {
	lat := r.latencies()
	return rateSummary{Phase: r.phase, Offered: r.offered, Achieved: r.achieved, Requests: len(r.replies),
		OK: r.count(http.StatusOK), Refused: r.count(http.StatusTooManyRequests),
		P50MS: finiteOr(quantile(lat, 0.5), -1), P99MS: finiteOr(quantile(lat, 0.99), -1), LagP99MS: quantile(r.lags(), 0.99),
		StealFrac: r.stealFrac, Valid: r.valid()}
}

// finiteOr returns v, or alt when v is NaN or infinite (JSON has
// neither); a refused request makes a latency quantile infinite.
func finiteOr(v, alt float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return alt
	}
	return v
}

// tickets replays the pool's stream reservation: ticket k is the k-th
// pair of Splits of a parent seeded like the pool.
func tickets(seed uint64, n int) []arch.ReservedStreams {
	parent := rng.New(seed)
	out := make([]arch.ReservedStreams, n)
	for i := range out {
		out[i].Enc = parent.Split()
		out[i].Noise = parent.Split()
	}
	return out
}

// verifyStats counts what verifyServed checked: the answers, those whose
// admission raced a neighbour's, the extra golden replays that took, and
// the answers that matched no ticket.
type verifyStats struct {
	answers, raced, replays, bad int
}

// verifyServed checks every 2xx answer of the runs against a standalone
// golden session. Tickets are reserved in admission order,
// so request i normally holds ticket i; requests whose admissions raced
// may hold a neighbour's, so a mismatch is retried against the unclaimed
// tickets nearby.
func verifyServed(ctx context.Context, fx *fixture, in *serveInputs, runs []*rateRun) (verifyStats, error) {
	golden, err := fx.factory(ctx)
	if err != nil {
		return verifyStats{}, fmt.Errorf("golden session: %w", err)
	}
	total := 0
	for _, r := range runs {
		total += len(r.replies)
	}
	tks := tickets(fx.poolSeed, total+64)
	goldenRun := func(img *tensor.Tensor, k int) (*arch.RunResult, error) {
		return golden.RunReserved(ctx, img, arch.ReservedStreams{Enc: tks[k].Enc.Clone(), Noise: tks[k].Noise.Clone()})
	}

	type job struct {
		base, end int // the run's ticket range
		k         int // the ticket expected
		img       *tensor.Tensor
		resp      serve.InferResponse
	}
	// A request refused at admission (429, 503) reserved no ticket, so
	// request i expects the ticket after those of the admitted requests
	// sent before it.
	var jobs []job
	base := 0
	for _, r := range runs {
		admitted, end := 0, base+int(r.stats.Admitted)
		for i, rep := range r.replies {
			if rep.status == http.StatusTooManyRequests || rep.status == http.StatusServiceUnavailable {
				continue
			}
			admitted++
			if rep.status != http.StatusOK {
				continue
			}
			var resp serve.InferResponse
			if err := json.Unmarshal(rep.body, &resp); err != nil {
				return verifyStats{}, fmt.Errorf("decode response: %w", err)
			}
			jobs = append(jobs, job{base: base, end: end, k: base + admitted - 1, img: in.imgs[i%len(in.imgs)], resp: resp})
		}
		base = end
	}

	matches := func(res *arch.RunResult, resp serve.InferResponse) bool {
		d := res.Output.Data()
		if res.Prediction != resp.Prediction || len(d) != len(resp.Output) {
			return false
		}
		for j := range d {
			if math.Float64bits(d[j]) != math.Float64bits(resp.Output[j]) {
				return false
			}
		}
		return true
	}

	// First pass: every answer against the ticket it is expected to hold.
	ok := make([]bool, len(jobs))
	if err := forEach(len(jobs), func(j int) error {
		res, err := goldenRun(jobs[j].img, jobs[j].k)
		if err == nil {
			ok[j] = matches(res, jobs[j].resp)
		}
		return err
	}); err != nil {
		return verifyStats{}, fmt.Errorf("golden run: %w", err)
	}

	// Second pass: raced admissions, against the unclaimed tickets of the
	// same run, nearest first. Within the window every image differs, so
	// a ticket matches only the answer that held it; one matched twice was
	// served twice and counts as bad.
	st := verifyStats{answers: len(jobs)}
	claimed := map[int]bool{}
	var raced []int
	for j, jb := range jobs {
		if ok[j] {
			claimed[jb.k] = true
		} else {
			raced = append(raced, j)
		}
	}
	st.raced = len(raced)
	const window = 64
	var mu sync.Mutex
	isClaimed := func(k int) bool {
		mu.Lock()
		defer mu.Unlock()
		return claimed[k]
	}
	err = forEach(len(raced), func(r int) error {
		jb := jobs[raced[r]]
		replays, bad := 0, 1
	search:
		for d := 1; d <= window; d++ {
			for _, k := range [2]int{jb.k - d, jb.k + d} {
				if k < jb.base || k >= jb.end || isClaimed(k) {
					continue
				}
				res, err := goldenRun(jb.img, k)
				if err != nil {
					return err
				}
				replays++
				if matches(res, jb.resp) {
					mu.Lock()
					if !claimed[k] {
						claimed[k], bad = true, 0
					}
					mu.Unlock()
					break search
				}
			}
		}
		mu.Lock()
		st.replays += replays
		st.bad += bad
		mu.Unlock()
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("golden run: %w", err)
	}
	return st, nil
}

// forEach calls fn(0..n-1) on GOMAXPROCS goroutines and returns their
// errors joined; a goroutine stops at its first error.
func forEach(n int, fn func(j int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n && errs[w] == nil; j += workers {
				errs[w] = fn(j)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveSession is the serve-open phase, driven in parts so that its
// fixed-rate repetitions are spread over the whole benchmark run instead
// of one stretch of the host's (shared, drifting) speed.
type serveSession struct {
	ctx    context.Context
	fx     *fixture
	in     *serveInputs
	sz     sizes
	tr     *tracer
	fleet0 obs.FleetStats
	// all is every rate run in execution order, which is ticket order.
	all    []*rateRun
	res    serveResult
	low    *rateRun
	high   *rateRun
	ladder []*rateRun
}

func newServeSession(ctx context.Context, fx *fixture, sz sizes, tr *tracer) (*serveSession, error) {
	in, err := newServeInputs(fx)
	if err != nil {
		return nil, err
	}
	return &serveSession{ctx: ctx, fx: fx, in: in, sz: sz, tr: tr, fleet0: fx.fleetRec.Stats()}, nil
}

// add records a finished rate run. At the fixed rates every answer must
// be a 2xx; on the ladder a refusal (429) is the capacity signal.
func (s *serveSession) add(r *rateRun) {
	s.all = append(s.all, r)
	s.res.runs = append(s.res.runs, r.summary())
	s.res.attempted += len(r.replies)
	for _, rep := range r.replies {
		if rep.status != http.StatusOK && (r.phase != "ladder" || rep.status != http.StatusTooManyRequests) {
			s.res.failed++
		}
	}
}

// rate runs one rate up to maxRateTries times, trying again while the
// run was not valid: such a run measured the generator or the host, not
// the server. Whether a run is valid does not depend on its latencies.
// Every try is served and counted; the valid one, or failing that the
// one with the least stolen time, is measured.
func (s *serveSession) rate(phase string, rps float64, n int) (*rateRun, error) {
	root := s.tr.begin("serve-open", -1)
	defer s.tr.end(root)
	var best *rateRun
	for try := 0; try < maxRateTries; try++ {
		r, err := runRate(s.ctx, s.fx, s.in, phase, rps, n, s.tr, root)
		if err != nil {
			return nil, fmt.Errorf("%s rate: %w", phase, err)
		}
		s.add(r)
		if r.valid() {
			return r, nil
		}
		if best == nil || r.stealFrac < best.stealFrac {
			best = r
		}
	}
	return best, nil
}

// runLow runs the low rate.
func (s *serveSession) runLow() (err error) {
	s.low, err = s.rate("low", lowRPS, s.sz.serveRequests)
	return err
}

// runHigh runs the high rate.
func (s *serveSession) runHigh() (err error) {
	s.high, err = s.rate("high", highRPS, s.sz.serveRequests)
	return err
}

// runLadder searches for capacity: it grows from the high rate by
// ladderGrowth while rungs meet the limit, then bisects between the best
// pass and the first failure. Each rung is measured once.
func (s *serveSession) runLadder() error {
	lo, hi := highRPS, math.Inf(1)
	for p := 0; p < s.sz.ladderProbes; p++ {
		rate := lo * ladderGrowth
		if !math.IsInf(hi, 1) {
			rate = (lo + hi) / 2
		}
		r, err := s.rate("ladder", rate, s.sz.ladderRequests)
		if err != nil {
			return err
		}
		s.ladder = append(s.ladder, r)
		if r.meets() {
			lo = rate
		} else {
			hi = rate
		}
	}
	return nil
}

// finish checks every served answer against golden replays and
// computes the phase's metrics.
func (s *serveSession) finish(pl *perLayer) (*serveResult, error) {
	res := &s.res
	st, err := verifyServed(s.ctx, s.fx, s.in, s.all)
	if err != nil {
		return nil, err
	}
	res.verified = st.answers
	res.notes = append(res.notes, fmt.Sprintf("served answers checked against golden replays: %d, %d with raced admissions (%d extra replays)",
		st.answers, st.raced, st.replays))
	if st.bad > 0 {
		res.failed += st.bad
		res.notes = append(res.notes, fmt.Sprintf("%d served outputs match no golden replay", st.bad))
	}

	lowLat := s.low.latencies()
	res.lowTail = tailOf(servedLatencies(s.low))
	res.highTail = tailOf(servedLatencies(s.high))
	res.p50Low = quantile(lowLat, 0.5)
	res.p99Low = quantile(lowLat, 0.99)
	res.p99High = quantile(s.high.latencies(), 0.99)
	if !s.high.meets() {
		res.notes = append(res.notes, fmt.Sprintf("high rate %.0f req/s missed the %.0f ms p99 limit", highRPS, p99LimitMS))
	}
	// Capacity: the achieved rate of the best rung that met the limit;
	// the high rate is the ladder's floor.
	for _, r := range append([]*rateRun{s.high}, s.ladder...) {
		if r.meets() && r.achieved > res.maxRPS {
			res.maxRPS = r.achieved
		}
	}

	if s.tr != nil {
		s.layers(pl)
	}
	return res, nil
}

// layers fills the serve and fleet per-layer metrics of a traced run.
func (s *serveSession) layers(pl *perLayer) {
	low, high := s.low, s.high
	ls, hs := low.stats, high.stats
	pl.set("serve_max_rps", s.res.maxRPS, "req/s")
	pl.set("serve_p99_ms_low", s.res.p99Low, "ms")
	pl.set("serve_p99_ms_high", s.res.p99High, "ms")
	pl.set("serve.coalesce_wait_ms_p50", ls.CoalesceNS.Quantile(0.5)/1e6, "ms")
	pl.set("serve.coalesce_wait_ms_p99", ls.CoalesceNS.Quantile(0.99)/1e6, "ms")
	pl.set("serve.service_ms_p50", (hs.LatencyNS.Quantile(0.5)-hs.CoalesceNS.Quantile(0.5))/1e6, "ms")
	pl.set("serve.batch_fill_mean", hs.BatchFill.Mean(), "requests")
	var hsum float64
	for _, rep := range low.replies {
		hsum += rep.handlerNS
	}
	pl.set("serve.http_overhead_us", (hsum/float64(len(low.replies))-ls.LatencyNS.Mean())/1e3, "us")
	var refused, offered int
	for _, r := range s.ladder {
		refused += r.count(http.StatusTooManyRequests)
		offered += len(r.replies)
	}
	pl.set("serve.rejected_frac", float64(refused)/float64(max(1, offered)), "fraction")
	var maint, lags []float64
	for _, r := range s.all {
		maint = append(maint, r.maintainNS...)
		if r.phase != "ladder" {
			lags = append(lags, r.lags()...)
		}
	}
	if len(maint) == 0 {
		// Runs shorter than one maintenance tick (smoke sizes): time one
		// maintenance pass over a freshly aged replica.
		s.fx.pool.AgeReplica(0, ageSteps)
		t0 := time.Now()
		_ = s.fx.pool.Maintain(s.ctx) // only its duration is wanted here
		maint = append(maint, float64(time.Since(t0).Nanoseconds()))
	}
	pl.set("fleet.maintain_ms", median(maint)/1e6, "ms")
	f := s.fx.fleetRec.Stats()
	pl.set("fleet.scrub_cycles", float64(f.ScrubCycles-s.fleet0.ScrubCycles), "count")
	pl.set("fleet.retries", float64(f.Retries-s.fleet0.Retries), "count")
	pl.set("fleet.failovers", float64(f.Failovers-s.fleet0.Failovers), "count")
	pl.set("loadgen.lag_ms_p99", quantile(lags, 0.99), "ms")
}
