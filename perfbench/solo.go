package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"helmsim/internal/infer"
	"helmsim/internal/workload"
)

// The paper's protocol (§III-B): 128-token prompts, 21 generated
// tokens, each prompt repeated 10 times.
const (
	soloPromptLen = 128
	soloGen       = 21
	soloRepeat    = 10
	soloWarmup    = 2
)

// soloEngine is one solo-ooc serving stack: an out-of-core file store,
// optionally behind the fetch wrapper, under the prefetched step engine
// the batcher uses, with private per-block KV caches.
type soloEngine struct {
	fst *infer.FileStore
	se  *infer.StepEngine
	kv  []infer.KVBlock
}

func (s *soloEngine) close() {
	s.se.Close()
	s.fst.Close()
}

// openSolo builds the stack; probe, when non-nil, wraps the store.
func openSolo(ctx context.Context, e *env, probe *fetchProbe) (*soloEngine, time.Duration, error) {
	fst, d, err := openVerified(e.ckpt)
	if err != nil {
		return nil, 0, err
	}
	var w infer.WeightStore = fst
	if probe != nil {
		w = newTimedStore(fst, probe, 1)
	}
	se, err := infer.NewStepEnginePrefetched(ctx, e.cfg, w, infer.Retry{Max: retries})
	if err != nil {
		fst.Close()
		return nil, 0, err
	}
	return &soloEngine{fst: fst, se: se, kv: infer.NewBlockCaches(e.cfg)}, d, nil
}

// soloReq is one measured generation.
type soloReq struct {
	prompt     int // index into the distinct prompts
	tokens     []int
	start, end time.Time
	ttft       time.Duration
	tbt        []time.Duration
}

// generate runs one greedy generation of n tokens: a prefill step, then
// one decode step per further token. When rec is on it records the
// request and step spans and points fetches at them.
func (s *soloEngine) generate(prompt []int, n int, rec *recorder, r *soloReq) error {
	for _, kb := range s.kv {
		kb.Truncate(0)
	}
	reqID := rec.reserve()
	rec.curReq.Store(reqID)
	rec.cur.Store(reqID)
	r.start = time.Now()
	seq := infer.StepSeq{Tokens: prompt, KV: s.kv}
	seqs := []*infer.StepSeq{&seq}
	var tok [1]int
	last := r.start
	for i := 0; i < n; i++ {
		kind := kindDecode
		if i == 0 {
			kind = kindPrefill
		}
		stepID := rec.reserve()
		if stepID >= 0 {
			rec.cur.Store(stepID)
		}
		t0 := time.Now()
		logits, err := s.se.Step(seqs)
		if err != nil {
			return err
		}
		tok[0] = logits[0].ArgmaxRow(0)
		now := time.Now()
		rec.finish(stepID, span{kind: kind, lane: 0, parent: reqID, req: reqID, layer: -1, start: int64(t0.Sub(rec.base))})
		rec.cur.Store(reqID)
		r.tokens = append(r.tokens, tok[0])
		if i == 0 {
			r.ttft = now.Sub(r.start)
		} else {
			r.tbt = append(r.tbt, now.Sub(last))
		}
		last = now
		seq.Pos += len(seq.Tokens)
		seq.Tokens = tok[:]
	}
	r.end = last
	rec.finish(reqID, span{kind: kindRequest, lane: 0, parent: -1, req: reqID, layer: -1, start: int64(r.start.Sub(rec.base))})
	rec.cur.Store(-1)
	rec.curReq.Store(-1)
	return nil
}

// soloPhase is one measured stretch of back-to-back generations.
type soloPhase struct {
	reqs               []soloReq
	mem0, mem1         runtime.MemStats
	hits0, misses0     int
	hits1, misses1     int
	fetch0, fetch1     [3]int64 // fetches, busy ns, stored bytes
	wallStart, wallEnd time.Time
}

func (p *soloPhase) tokens() int {
	n := 0
	for _, r := range p.reqs {
		n += len(r.tokens)
	}
	return n
}

func (p *soloPhase) tokS() float64 {
	return float64(p.tokens()) / p.wallEnd.Sub(p.wallStart).Seconds()
}

func probeCounts(p *fetchProbe) [3]int64 {
	if p == nil {
		return [3]int64{}
	}
	return [3]int64{p.fetches.Load(), p.busyNS.Load(), p.stored.Load()}
}

// runPhase generates prompts from *next onwards until d has passed.
func (s *soloEngine) runPhase(ctx context.Context, prompts []workload.Prompt, next *int, d time.Duration, rec *recorder, probe *fetchProbe) (*soloPhase, error) {
	p := &soloPhase{}
	p.hits0, p.misses0 = s.se.PrefetchStats()
	p.fetch0 = probeCounts(probe)
	runtime.ReadMemStats(&p.mem0)
	p.wallStart = time.Now()
	for time.Since(p.wallStart) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if *next >= len(prompts) {
			return nil, fmt.Errorf("solo-ooc: prompt pool of %d exhausted", len(prompts))
		}
		r := soloReq{prompt: *next / soloRepeat, tokens: make([]int, 0, soloGen), tbt: make([]time.Duration, 0, soloGen)}
		if err := s.generate(prompts[*next].Tokens, soloGen, rec, &r); err != nil {
			return nil, err
		}
		*next++
		p.reqs = append(p.reqs, r)
	}
	p.wallEnd = time.Now()
	runtime.ReadMemStats(&p.mem1)
	p.hits1, p.misses1 = s.se.PrefetchStats()
	p.fetch1 = probeCounts(probe)
	return p, nil
}

// runSolo is the solo-ooc workload: one closed-loop caller on a solo
// out-of-core step engine, the paper's batch-1 latency regime. A traced
// run first measures a plain engine for one window, then an engine over
// the wrapped store with the recorder on for another.
func runSolo(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{meta: map[string]any{
		"loop": "closed, 1 caller", "prompt_tokens": soloPromptLen, "gen_tokens": soloGen,
		"prompt_repeats": soloRepeat,
	}}
	gen, err := workload.NewGenerator(e.seed, e.cfg.Vocab)
	if err != nil {
		return nil, err
	}
	// Enough prompts for a generous upper bound on throughput.
	pool := int(e.seconds*20/soloRepeat) + 4
	base, err := gen.Prompts(pool, soloPromptLen)
	if err != nil {
		return nil, err
	}
	prompts, err := workload.Repeat(base, soloRepeat)
	if err != nil {
		return nil, err
	}

	rec := newRecorder(0)
	next := 0
	warm := &soloPhase{}
	// measure warms eng up, then runs one window on it.
	measure := func(eng *soloEngine, probe *fetchProbe) (*soloPhase, error) {
		for i := 0; i < soloWarmup; i++ {
			r := soloReq{prompt: next / soloRepeat}
			if err := eng.generate(prompts[next].Tokens, soloGen, rec, &r); err != nil {
				return nil, err
			}
			next++
			warm.reqs = append(warm.reqs, r)
		}
		rec.on.Store(probe != nil)
		defer rec.on.Store(false)
		return eng.runPhase(ctx, prompts, &next, e.window(), rec, probe)
	}
	phases := []*soloPhase{warm}
	if e.trace {
		plain, _, err := openSolo(ctx, e, nil)
		if err != nil {
			return nil, err
		}
		a, err := measure(plain, nil)
		plain.close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, a)
	}

	var probe *fetchProbe
	if e.trace {
		rec = newRecorder(1 << 19)
		probe = &fetchProbe{rec: rec, bytes: e.stored}
	}
	// Set-up: open + verify + engine, several times; keep the last.
	var setupS []float64
	var opens []float64
	var eng *soloEngine
	for i := 0; i < e.setups; i++ {
		if eng != nil {
			eng.close()
		}
		start := time.Now()
		var d time.Duration
		if eng, d, err = openSolo(ctx, e, probe); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		opens = append(opens, ms(d))
	}
	defer eng.close()
	o.addPct("setup_s", setupS, 0.5, "s")
	o.addPct("checkpoint.open_verify_ms", opens, 0.5, "ms")

	b, err := measure(eng, probe)
	if err != nil {
		return nil, err
	}
	phases = append(phases, b)
	eng.se.Settle()

	var e2e, ttft, tbt []float64
	for _, r := range b.reqs {
		e2e = append(e2e, ms(r.end.Sub(r.start)))
		ttft = append(ttft, ms(r.ttft))
		for _, g := range r.tbt {
			tbt = append(tbt, ms(g))
		}
	}
	wall := b.wallEnd.Sub(b.wallStart).Seconds()
	tokens := b.tokens()
	if !e.trace {
		o.addPct("ttft_p50_ms", ttft, 0.5, "ms")
		o.addPct("ttft_p90_ms", ttft, 0.9, "ms")
		o.addPct("tbt_p50_ms", tbt, 0.5, "ms")
		o.addPct("tbt_p99_ms", tbt, 0.99, "ms")
		o.addPct("e2e_p50_ms", e2e, 0.5, "ms")
		o.addPct("e2e_p90_ms", e2e, 0.9, "ms")
		o.add("tok_s", b.tokS(), "tokens/s", tokens)
	} else {
		o.addPct("infer.ttft_p50_ms", ttft, 0.5, "ms")
		o.addPct("infer.tbt_p50_ms", tbt, 0.5, "ms")
		hits, misses := b.hits1-b.hits0, b.misses1-b.misses0
		o.add("infer.prefetch_hit_rate", ratio(hits, hits+misses), "ratio", hits+misses)
		fetches := b.fetch1[0] - b.fetch0[0]
		o.add("infer.fetches_per_token", ratio(int(fetches), tokens), "fetches/token", int(fetches))
		o.add("infer.fetch_busy_share", float64(b.fetch1[1]-b.fetch0[1])/1e9/wall, "ratio", 0)
		o.add("infer.weight_bytes_per_token", ratio(int(b.fetch1[2]-b.fetch0[2]), tokens), "B/token", 0)
		addProc(o, &b.mem0, &b.mem1, tokens)
		o.add("trace.overhead_pct", 100*(1-b.tokS()/phases[1].tokS()), "%", 0)
		if _, err := writeTrace(e, o, rec); err != nil {
			return nil, err
		}
	}

	// Correctness: every generation, warm-up included, against a solo
	// infer.Engine over an in-memory copy of the same checkpoint, outside
	// the timed window.
	ref, err := newReference(e)
	if err != nil {
		return nil, err
	}
	want := map[int]*[]int{}
	var jobs []job
	for _, ph := range phases {
		for _, r := range ph.reqs {
			if _, seen := want[r.prompt]; !seen {
				want[r.prompt] = new([]int)
				jobs = append(jobs, job{prompt: base[r.prompt].Tokens, n: soloGen, out: want[r.prompt]})
			}
		}
	}
	if err := ref.generateAll(jobs); err != nil {
		return nil, err
	}
	for _, ph := range phases {
		for _, r := range ph.reqs {
			o.sent++
			if slices.Equal(*want[r.prompt], r.tokens) {
				o.succeeded++
			} else {
				o.failed++
				o.mismatches++
			}
		}
	}
	o.ledgerOK = true // no admission ledger on this path
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addProc adds the Go runtime's allocation and GC deltas over a window.
func addProc(o *outcome, m0, m1 *runtime.MemStats, tokens int) {
	o.add("proc.allocs_per_token", ratio(int(m1.Mallocs-m0.Mallocs), tokens), "allocs/token", tokens)
	o.add("proc.alloc_bytes_per_token", ratio(int(m1.TotalAlloc-m0.TotalAlloc), tokens), "B/token", tokens)
	o.add("proc.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 0)
}
