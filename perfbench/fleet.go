package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"helmsim/internal/gateway"
	"helmsim/internal/infer"
	"helmsim/internal/server"
	"helmsim/internal/workload"
)

// fleetCall is one client request and what came back.
type fleetCall struct {
	prompt []int
	class  string
	maxNew int
	doc    int // the shared document the prompt starts with

	sent, done time.Time
	status     int
	tokens     []int
	queueMS    float64
	serviceMS  float64
	span       int32
	err        error
}

func (c *fleetCall) ok() bool { return c.err == nil && c.status == http.StatusOK }

// client is the benchmark's load generator: one HTTP/2 cleartext
// client multiplexing every in-flight request over one connection.
type client struct {
	hc  *http.Client
	url string
	rec *recorder
}

func newClient(url string, rec *recorder) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{Protocols: h2cProtocols()}},
		url: url, rec: rec,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one generate request and records the response.
func (c *client) do(ctx context.Context, call *fleetCall) {
	body, err := json.Marshal(server.GenerateRequest{Prompt: call.prompt, MaxTokens: call.maxNew, Class: call.class})
	if err != nil {
		call.err = err
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		call.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	call.span = c.rec.reserve()
	if call.span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(call.span)))
	}
	call.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		call.err = err
		call.done = time.Now()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	call.done = time.Now()
	c.rec.finish(call.span, span{
		kind: kindRequest, lane: requestLane(call.span), parent: -1, req: call.span,
		layer: -1, start: int64(call.sent.Sub(c.rec.base)),
	})
	call.status = resp.StatusCode
	if err != nil {
		call.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	var gr server.GenerateResponse
	if err := json.Unmarshal(raw, &gr); err != nil {
		call.err = err
		return
	}
	call.tokens, call.queueMS, call.serviceMS = gr.Tokens, gr.QueueMS, gr.ServiceMS
}

// fleetSnap is the stack's counters at one instant.
type fleetSnap struct {
	at    time.Time
	srv   []server.Stats
	gw    gateway.FleetStats
	mem   runtime.MemStats
	fetch [3]int64
}

func snapshot(f *fleet, probe *fetchProbe) *fleetSnap {
	s := &fleetSnap{gw: f.gw.Stats(), fetch: probeCounts(probe)}
	for _, r := range f.servers {
		s.srv = append(s.srv, r.Stats())
	}
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s
}

// fleetPlan is the prefix-batch workload's requests.
type fleetPlan struct {
	calls []fleetCall
	next  int // the first call not yet taken
	// docs are the shared document prefixes calls index by doc.
	docs [][]int
	meta map[string]any
}

// runFleet sets the stack up, drives the plan, checks the outputs and
// reports the metrics of the measured window. A traced run first
// drives a plain stack for one window, then the stack with the timing
// wrappers recording for another.
func runFleet(ctx context.Context, e *env, plan *fleetPlan) (*outcome, error) {
	o := &outcome{meta: plan.meta}
	o.meta["replicas"] = replicas
	o.meta["max_seqs"] = maxSeqs
	o.ledgerOK = true

	opts := fleetOpts{cfg: e.cfg, ckpt: e.ckpt, opens: new([]float64)}
	var plain *driveResult
	if e.trace {
		f, err := startFleet(ctx, opts)
		if err != nil {
			return nil, err
		}
		if plain, err = measure(ctx, e, plan, f, newRecorder(0), nil, o); err != nil {
			return nil, err
		}
	}

	rec := newRecorder(0)
	var probe *fetchProbe
	if e.trace {
		rec = newRecorder(1 << 19)
		probe = &fetchProbe{rec: rec, bytes: e.stored}
		opts.wrapStore = func(i int, fst *infer.FileStore) infer.WeightStore {
			return newTimedStore(fst, probe, int32(1+i))
		}
		opts.wrapRT = func(i int, rt http.RoundTripper) http.RoundTripper {
			return &timedTransport{inner: rt, rec: rec, replica: fmt.Sprintf("r%d", i)}
		}
		opts.wrapGW = withSpanContext
	}

	// Set-up: replicas (checkpoint open + verify, batcher), gateway and
	// listener up, several times; keep the last.
	var setupS []float64
	opts.opens = new([]float64)
	var f *fleet
	for i := 0; i < e.setups; i++ {
		if f != nil {
			if err := f.stop(ctx); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = startFleet(ctx, opts); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	o.addPct("setup_s", setupS, 0.5, "s")
	o.addPct("checkpoint.open_verify_ms", *opts.opens, 0.5, "ms")

	dr, err := measure(ctx, e, plan, f, rec, probe, o)
	if err != nil {
		return nil, err
	}
	a, b := dr.marks[0], dr.marks[1]
	ws, err := plan.window(dr)
	if err != nil {
		return nil, err
	}
	if !e.trace {
		o.addPct("e2e_p50_ms", ws.e2e, 0.5, "ms")
		o.addPct("e2e_p90_ms", ws.e2e, 0.9, "ms")
		o.add("tok_s", ws.tokS(), "tokens/s", ws.tokens)
	} else {
		st, err := writeTrace(e, o, rec)
		if err != nil {
			return nil, err
		}
		// Requests sent while tracing: the population the spans cover.
		traced := plan.stats(b.at.Sub(a.at), func(c *fleetCall) bool { return c.span >= 0 })
		layerMetrics(o, a, b, st, traced)
		o.add("kvcache.page_util_max", dr.pageMax, "ratio", dr.samples)
		o.addPct("server.queue_p90_ms", traced.queue, 0.9, "ms")
		o.addPct("server.service_p50_ms", traced.service, 0.5, "ms")
		untraced, err := plan.window(plain)
		if err != nil {
			return nil, err
		}
		o.add("trace.overhead_pct", 100*(1-ws.tokS()/untraced.tokS()), "%", 0)
	}

	t0 := time.Now()
	if err := verifyFleet(e, plan, o); err != nil {
		return nil, err
	}
	o.meta["reference_s"] = time.Since(t0).Seconds()
	return o, nil
}

// measure drives the plan on f for one window, stops f and checks its
// ledgers at quiescence.
func measure(ctx context.Context, e *env, plan *fleetPlan, f *fleet, rec *recorder, probe *fetchProbe, o *outcome) (*driveResult, error) {
	cl := newClient(f.url, rec)
	dr, err := drive(ctx, e, plan, f, cl, probe)
	cl.close()
	if stopErr := f.stop(ctx); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	o.ledgerOK = o.ledgerOK && f.gw.Stats().Conserved()
	for _, s := range f.servers {
		o.ledgerOK = o.ledgerOK && s.Stats().Conserved()
	}
	return dr, nil
}

// windowStats are the client-side measurements of calls in a window.
type windowStats struct {
	secs                float64
	tokens, promptToks  int
	e2e, queue, service []float64
}

func (w *windowStats) tokS() float64 { return float64(w.tokens) / w.secs }

// window measures the calls completed between a drive's marks. A window
// in which nothing completed has no latency or throughput to report.
func (p *fleetPlan) window(dr *driveResult) (*windowStats, error) {
	from, to := dr.marks[0].at, dr.marks[1].at
	ws := p.stats(to.Sub(from), func(c *fleetCall) bool {
		return !c.done.Before(from) && c.done.Before(to)
	})
	if ws.tokens == 0 {
		return nil, fmt.Errorf("no request completed in a %v window; run longer", to.Sub(from).Round(time.Millisecond))
	}
	return ws, nil
}

// stats measures the sent calls that in selects, over a window of d.
func (p *fleetPlan) stats(d time.Duration, in func(*fleetCall) bool) *windowStats {
	ws := &windowStats{secs: d.Seconds()}
	for i := range p.calls {
		c := &p.calls[i]
		if c.sent.IsZero() || !in(c) {
			continue
		}
		ws.promptToks += len(c.prompt)
		if !c.ok() {
			continue
		}
		ws.e2e = append(ws.e2e, ms(c.done.Sub(c.sent)))
		ws.queue = append(ws.queue, c.queueMS)
		ws.service = append(ws.service, c.serviceMS)
		ws.tokens += len(c.tokens)
	}
	return ws
}

// driveResult holds the counter snapshots at the window's ends.
type driveResult struct {
	marks   []*fleetSnap
	pageMax float64
	samples int
}

// drive runs a closed loop of callers that fills every replica's
// sequence cap, from the plan's next call,
// snapshots the counters at the window's ends, turning the recorder on
// between them when probe is set, then waits for every request in
// flight.
func drive(ctx context.Context, e *env, plan *fleetPlan, f *fleet, cl *client, probe *fetchProbe) (*driveResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var stop, exhausted atomic.Bool
	var completed atomic.Int64
	warm := make(chan struct{})
	var warmOnce sync.Once
	start := time.Now()
	var next atomic.Int64
	next.Store(int64(plan.next))
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(plan.calls) {
					exhausted.Store(true)
					warmOnce.Do(func() { close(warm) })
					return
				}
				cl.do(ctx, &plan.calls[i])
				if completed.Add(1) == callers {
					warmOnce.Do(func() { close(warm) })
				}
			}
		}()
	}
	// The window opens after fleetWarmup and once a first wave of
	// requests has completed, so the waves that fill the caches stay out
	// of it.
	from := start.Add(fleetWarmup)
	select {
	case <-warm:
	case <-ctx.Done():
	}
	if now := time.Now(); now.After(from) {
		from = now
	}
	plan.meta["warmup_s"] = from.Sub(start).Seconds()

	dr := &driveResult{}
	var err error
	for _, t := range []time.Time{from, from.Add(e.window())} {
		if err = dr.waitUntil(ctx, f, cl.rec, t); err != nil {
			break
		}
		dr.marks = append(dr.marks, snapshot(f, probe))
		cl.rec.on.Store(probe != nil && len(dr.marks) == 1)
	}
	stop.Store(true)
	if err != nil {
		cancel()
	}
	wg.Wait()
	cl.rec.on.Store(false)
	plan.next = min(int(next.Load()), len(plan.calls))
	if err == nil && exhausted.Load() {
		err = fmt.Errorf("%s: request pool of %d exhausted before the window ended", e.workload, len(plan.calls))
	}
	return dr, err
}

// waitUntil sleeps until t; while tracing it samples the replicas' KV
// page utilization every 100 ms.
func (dr *driveResult) waitUntil(ctx context.Context, f *fleet, rec *recorder, t time.Time) error {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	end := time.NewTimer(time.Until(t))
	defer end.Stop()
	for {
		select {
		case <-end.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if !rec.on.Load() {
				continue
			}
			dr.samples++
			for _, s := range f.servers {
				if b := s.Stats().Batch; b != nil {
					dr.pageMax = max(dr.pageMax, b.Pool.PageUtilization)
				}
			}
		}
	}
}

// layerMetrics derives the per-layer metrics of the traced window from
// the counter snapshots at its ends and the recorded spans.
func layerMetrics(o *outcome, a, b *fleetSnap, st *spanTimes, ws *windowStats) {
	secs := b.at.Sub(a.at).Seconds()
	arrivals := int(b.gw.Arrivals - a.gw.Arrivals)
	attempts := 0
	for i := range b.gw.Backends {
		attempts += int(b.gw.Backends[i].Attempts - a.gw.Backends[i].Attempts)
	}
	o.addPct("gateway.forward_p50_ms", st.dur[kindForward], 0.5, "ms")
	o.addPct("gateway.overhead_p50_ms", st.self[kindRequest], 0.5, "ms")
	o.add("gateway.attempts_per_req", ratio(attempts, arrivals), "ratio", arrivals)

	var srvArr, shed, steps, occ, toks, preempt, lookups, hits, shared, evict, cow, phits, pmiss int
	for i := range b.srv {
		x, y := &a.srv[i], &b.srv[i]
		srvArr += int(y.Arrivals - x.Arrivals)
		shed += int(shedTotal(y) - shedTotal(x))
		phits += int(y.PrefetchHits - x.PrefetchHits)
		pmiss += int(y.PrefetchMisses - x.PrefetchMisses)
		if x.Batch == nil || y.Batch == nil {
			continue
		}
		bx, by := x.Batch, y.Batch
		steps += by.Steps - bx.Steps
		occ += by.OccupancySum - bx.OccupancySum
		toks += by.TokensOut - bx.TokensOut
		preempt += by.Preemptions - bx.Preemptions
		lookups += by.Pool.PrefixLookups - bx.Pool.PrefixLookups
		hits += by.Pool.PrefixHits - bx.Pool.PrefixHits
		shared += by.Pool.SharedTokens - bx.Pool.SharedTokens
		evict += by.Pool.Evictions - bx.Pool.Evictions
		cow += by.Pool.CoWCopies - bx.Pool.CoWCopies
	}
	o.add("server.shed_ratio", ratio(shed, srvArr), "ratio", srvArr)
	o.add("batch.occupancy_avg", ratio(occ, steps), "seqs/step", steps)
	o.add("batch.tokens_per_step", ratio(toks, steps), "tokens/step", steps)
	o.add("batch.steps_per_s", float64(steps)/secs/float64(len(b.srv)), "1/s", steps)
	o.add("batch.preemptions", float64(preempt), "count", 0)
	o.add("kvcache.prefix_hit_rate", ratio(hits, lookups), "ratio", lookups)
	o.add("kvcache.shared_token_share", ratio(shared, ws.promptToks), "ratio", ws.promptToks)
	o.add("kvcache.evictions", float64(evict), "count", 0)
	o.add("kvcache.cow_copies", float64(cow), "count", 0)
	o.add("infer.prefetch_hit_rate", ratio(phits, phits+pmiss), "ratio", phits+pmiss)
	fetches := int(b.fetch[0] - a.fetch[0])
	o.add("infer.fetches_per_token", ratio(fetches, toks), "fetches/token", fetches)
	o.add("infer.fetch_busy_share", float64(b.fetch[1]-a.fetch[1])/1e9/secs/float64(len(b.srv)), "ratio", 0)
	o.add("infer.weight_bytes_per_token", ratio(int(b.fetch[2]-a.fetch[2]), toks), "B/token", 0)
	addProc(o, &a.mem, &b.mem, toks)
}

// shedTotal sums a replica's shed buckets.
func shedTotal(s *server.Stats) int64 {
	return s.ShedQueueFull + s.ShedMaxWait + s.ShedClientGone + s.ShedBreakerOpen +
		s.ShedDraining + s.ShedPagePressure + s.ShedDeadline + s.ShedBrownout + s.ShedCostBudget
}

// verifyFleet tallies the request ledger and checks every successful
// response against the solo reference.
func verifyFleet(e *env, plan *fleetPlan, o *outcome) error {
	var okCalls []*fleetCall
	for i := range plan.calls {
		c := &plan.calls[i]
		switch {
		case c.sent.IsZero():
			continue
		case c.ok():
			okCalls = append(okCalls, c)
		case c.err == nil && (c.status == http.StatusTooManyRequests || c.status == http.StatusServiceUnavailable):
			o.refused++
		default:
			o.failed++
		}
		o.sent++
	}
	ref, err := newReference(e)
	if err != nil {
		return err
	}
	want := make([][]int, len(okCalls))
	docs := map[int][]prefixJob{}
	var docOrder []int
	for i, c := range okCalls {
		if _, seen := docs[c.doc]; !seen {
			docOrder = append(docOrder, c.doc)
		}
		docs[c.doc] = append(docs[c.doc], prefixJob{suffix: c.prompt[len(plan.docs[c.doc]):], n: c.maxNew, out: &want[i]})
	}
	// Anchor the prefix-reuse reference: the first request of each
	// document also runs through a plain solo engine.
	anchors := make([][]int, len(okCalls))
	var jobs []job
	for i, c := range okCalls {
		if docs[c.doc][0].out == &want[i] {
			jobs = append(jobs, job{prompt: c.prompt, n: c.maxNew, out: &anchors[i]})
		}
	}
	if err := ref.generateAll(jobs); err != nil {
		return err
	}
	if err := ref.generatePrefixedAll(plan.docs, docs, docOrder); err != nil {
		return err
	}
	for i, c := range okCalls {
		match := slices.Equal(want[i], c.tokens)
		if anchors[i] != nil {
			match = match && slices.Equal(anchors[i], c.tokens)
		}
		if match {
			o.succeeded++
		} else {
			o.mismatches++
		}
	}
	return nil
}

// runPrefixBatch is the prefix-batch workload: a closed loop of enough
// callers to fill every replica's sequence cap, each prompt one of a
// few long shared documents plus a unique short suffix, short outputs.
func runPrefixBatch(ctx context.Context, e *env) (*outcome, error) {
	const (
		docs   = 4
		docLen = 224
		genMin = 4
		genMax = 12
	)
	g, err := workload.NewGenerator(e.seed, e.cfg.Vocab)
	if err != nil {
		return nil, err
	}
	docPrompts, err := g.Prompts(docs, docLen)
	if err != nil {
		return nil, err
	}
	// A generous upper bound on completions, both warm-ups of a traced
	// run included.
	n := int((2*fleetWarmup.Seconds() + 2*e.seconds) * 100)
	suffixes, err := g.NaturalPrompts(n, 16, 48)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	plan := &fleetPlan{
		meta: map[string]any{
			"loop":  fmt.Sprintf("closed, %d callers", callers),
			"shape": fmt.Sprintf("%d shared %d-token documents + unique suffix (median 16, max 48 tokens); %d-%d generated tokens", docs, docLen, genMin, genMax),
		},
	}
	for _, d := range docPrompts {
		plan.docs = append(plan.docs, d.Tokens)
	}
	for _, s := range suffixes {
		d := rng.Intn(docs)
		prompt := append(slices.Clip(plan.docs[d]), s.Tokens...)
		n := genMin + rng.Intn(genMax-genMin+1)
		plan.calls = append(plan.calls, fleetCall{prompt: prompt, class: "batch", maxNew: n, doc: d})
	}
	return runFleet(ctx, e, plan)
}
