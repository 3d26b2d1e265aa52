package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"helmsim/internal/infer"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	kindNone    spanKind = iota
	kindRequest          // client request, send to response
	kindForward          // one gateway forward attempt to a replica
	kindPrefill          // solo prefill step call
	kindDecode           // solo decode step call
	kindFetch            // one weight-store tensor fetch
)

func (k spanKind) String() string {
	return [...]string{"none", "request", "forward", "prefill", "decode", "fetch"}[k]
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's base; parent and req are -1 when absent.
type span struct {
	kind       spanKind
	lane       int32
	parent     int32
	req        int32
	layer      int16
	name       string
	start, end int64
}

// recorder keeps spans in a preallocated slice so recording allocates
// nothing: a span's slot is reserved when it starts (so children can
// name it as parent) and filled when it ends. Slots past the capacity
// are counted as dropped. Spans are read only after every writer has
// been joined.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span
	// cur and curReq are the span and request fetches in the solo
	// workload parent to: the step in progress, else the request, else
	// -1.
	cur, curReq atomic.Int32
}

func newRecorder(capacity int) *recorder {
	r := &recorder{base: time.Now(), spans: make([]span, capacity)}
	r.cur.Store(-1)
	r.curReq.Store(-1)
	return r
}

// reserve claims a slot for a span starting now, or -1 when off/full.
func (r *recorder) reserve() int32 {
	if !r.on.Load() {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// finish fills a reserved slot, stamping the end time.
func (r *recorder) finish(id int32, s span) {
	if id < 0 {
		return
	}
	s.end = int64(time.Since(r.base))
	r.spans[id] = s
}

// recorded returns the filled spans and the slot id of each.
func (r *recorder) recorded() ([]span, []int32) {
	n := min(int(r.next.Load()), len(r.spans))
	var spans []span
	var slots []int32
	for i, s := range r.spans[:n] {
		if s.kind != kindNone {
			spans = append(spans, s)
			slots = append(slots, int32(i))
		}
	}
	return spans, slots
}

// fetchProbe accumulates weight-store fetch counts at one seam.
type fetchProbe struct {
	rec     *recorder
	bytes   storedBytes
	fetches atomic.Int64
	busyNS  atomic.Int64
	stored  atomic.Int64
}

// timedStore wraps the WeightStore an engine reads from, timing and
// counting every fetch. It forwards TensorInto (infer.IntoStore) as
// server.breakerStore does, so the engines' buffer recycling and the
// allocation profile are unchanged by the wrapper.
type timedStore struct {
	inner infer.WeightStore
	into  infer.IntoStore
	p     *fetchProbe
	lane  int32
}

func newTimedStore(inner infer.WeightStore, p *fetchProbe, lane int32) *timedStore {
	into, _ := inner.(infer.IntoStore)
	return &timedStore{inner: inner, into: into, p: p, lane: lane}
}

func (s *timedStore) Tensor(layer int, name string) ([]float32, error) {
	id, t0 := s.p.rec.reserve(), time.Now()
	d, err := s.inner.Tensor(layer, name)
	s.done(id, t0, layer, name)
	return d, err
}

func (s *timedStore) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	if s.into == nil {
		return s.Tensor(layer, name)
	}
	id, t0 := s.p.rec.reserve(), time.Now()
	d, err := s.into.TensorInto(layer, name, dst)
	s.done(id, t0, layer, name)
	return d, err
}

func (s *timedStore) done(id int32, t0 time.Time, layer int, name string) {
	s.p.fetches.Add(1)
	s.p.busyNS.Add(int64(time.Since(t0)))
	s.p.stored.Add(s.p.bytes[layer][name])
	if id < 0 {
		return
	}
	parent, req := s.p.rec.cur.Load(), s.p.rec.curReq.Load()
	s.p.rec.finish(id, span{
		kind: kindFetch, lane: s.lane, parent: parent, req: req,
		layer: int16(layer), name: name, start: int64(t0.Sub(s.p.rec.base)),
	})
}

// spanCtxKey carries the client request's span id from the gateway
// listener into the forward attempts the gateway derives from it.
type spanCtxKey struct{}

// spanHeader is how the benchmark's client names its request span to
// the benchmark's own listener wrapper. The gateway does not forward
// client headers, so replicas never see it.
const spanHeader = "X-Perfbench-Span"

// withSpanContext wraps the gateway handler, moving the span header
// into the request context.
func withSpanContext(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, int32(v)))
		}
		h.ServeHTTP(w, r)
	})
}

// timedTransport wraps one replica's HandlerTransport, timing each
// generate forward. Bodies pass through untouched; health and stats
// probes pass through untimed.
type timedTransport struct {
	inner   http.RoundTripper
	rec     *recorder
	replica string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/generate" {
		return t.inner.RoundTrip(req)
	}
	id, t0 := t.rec.reserve(), time.Now()
	resp, err := t.inner.RoundTrip(req)
	parent, ok := req.Context().Value(spanCtxKey{}).(int32)
	if !ok {
		parent = -1
	}
	t.rec.finish(id, span{
		kind: kindForward, lane: requestLane(parent), parent: parent, req: parent,
		layer: -1, name: t.replica, start: int64(t0.Sub(t.rec.base)),
	})
	return resp, err
}

// requestLane is the trace lane of a client request's spans.
func requestLane(reqSpan int32) int32 {
	if reqSpan < 0 {
		return 999
	}
	return 1000 + reqSpan
}

// selfTimes computes each span's self time (ns): its duration minus the
// part of its interval its children cover. slots are the spans' ids,
// which children name as parent.
func selfTimes(spans []span, slots []int32) []int64 {
	idx := make(map[int32]int, len(slots))
	for i, id := range slots {
		idx[id] = i
	}
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for id, iv := range kids {
		i, ok := idx[id]
		if !ok {
			continue
		}
		p := spans[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, cs, ce int64
		cs, ce = -1, -1
		for _, c := range iv {
			lo, hi := max(c[0], p.start), min(c[1], p.end)
			if hi <= lo {
				continue
			}
			if lo > ce {
				if ce > cs {
					covered += ce - cs
				}
				cs, ce = lo, hi
			} else if hi > ce {
				ce = hi
			}
		}
		if ce > cs {
			covered += ce - cs
		}
		self[i] = -covered
	}
	for i, s := range spans {
		self[i] += s.end - s.start
	}
	return self
}

// chromeEvent is one complete event in the Chrome trace-event format
// internal/trace emits for the simulated timeline.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace events. Each span
// carries its id, parent, request and self time as args.
func writeChromeTrace(path string, spans []span, slots []int32, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	out := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		name := s.kind.String()
		switch s.kind {
		case kindFetch:
			name = fmt.Sprintf("fetch L%d/%s", s.layer, s.name)
		case kindForward:
			name = "forward " + s.name
		}
		out = append(out, chromeEvent{
			Name: name, Cat: s.kind.String(), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: int(s.lane),
			Args: map[string]string{
				"span":    strconv.Itoa(int(slots[i])),
				"parent":  strconv.Itoa(int(s.parent)),
				"req":     strconv.Itoa(int(s.req)),
				"self_us": strconv.FormatFloat(float64(self[i])/1e3, 'f', 1, 64),
			},
		})
	}
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTimes are the traced durations and self times (ms) by span kind.
type spanTimes struct {
	dur, self [kindFetch + 1][]float64
}

// writeTrace writes the recorded spans to the work directory as a
// Chrome trace, reports each span kind's mean self time, and returns
// the span times.
func writeTrace(e *env, o *outcome, rec *recorder) (*spanTimes, error) {
	st := &spanTimes{}
	spans, slots := rec.recorded()
	self := selfTimes(spans, slots)
	for i, s := range spans {
		st.dur[s.kind] = append(st.dur[s.kind], float64(s.end-s.start)/1e6)
		st.self[s.kind] = append(st.self[s.kind], float64(self[i])/1e6)
	}
	for k := kindRequest; k <= kindFetch; k++ {
		if n := len(st.self[k]); n > 0 {
			sum := 0.0
			for _, v := range st.self[k] {
				sum += v
			}
			o.add("self."+k.String()+"_mean_ms", sum/float64(n), "ms", n)
		}
	}
	if f := st.dur[kindFetch]; len(f) > 0 {
		v, n := percentile(f, 0.5)
		o.add("infer.fetch_p50_us", v*1e3, "us", n)
	}
	path := filepath.Join(e.workDir, fmt.Sprintf("trace-%s-%d.json", e.workload, e.seed))
	o.meta["trace_file"] = path
	o.meta["trace_spans"] = len(spans)
	o.meta["trace_spans_dropped"] = rec.dropped.Load()
	return st, writeChromeTrace(path, spans, slots, self)
}
