package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"helmsim/internal/tensor"
	"helmsim/internal/workload"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	e := &env{cfg: benchModel(), seed: 7, setups: 1, workDir: t.TempDir()}
	var err error
	if e.ckpt, e.ckptBytes, err = synthesize(e.cfg, e.workDir, e.seed); err != nil {
		t.Fatal(err)
	}
	if e.stored, err = readStoredBytes(e.cfg, e.ckpt); err != nil {
		t.Fatal(err)
	}
	return e
}

// soloAllocs runs n solo generations after one warm-up and returns their
// tokens and the allocations per generated token.
func soloAllocs(t *testing.T, e *env, prompts []workload.Prompt, wrapped bool) ([][]int, float64) {
	t.Helper()
	rec := newRecorder(0)
	var probe *fetchProbe
	if wrapped {
		rec = newRecorder(1 << 16)
		probe = &fetchProbe{rec: rec, bytes: e.stored}
	}
	eng, _, err := openSolo(context.Background(), e, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.close()
	var warm soloReq
	if err := eng.generate(prompts[0].Tokens, soloGen, rec, &warm); err != nil {
		t.Fatal(err)
	}
	reqs := make([]soloReq, len(prompts))
	for i := range reqs {
		reqs[i] = soloReq{tokens: make([]int, 0, soloGen), tbt: make([]time.Duration, 0, soloGen)}
	}
	rec.on.Store(wrapped)
	var m0, m1 runtime.MemStats
	eng.se.Settle()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, p := range prompts {
		if err := eng.generate(p.Tokens, soloGen, rec, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.se.Settle()
	runtime.ReadMemStats(&m1)
	rec.on.Store(false)
	if wrapped && probe.fetches.Load() == 0 {
		t.Fatal("wrapped run recorded no fetches")
	}
	var toks [][]int
	n := 0
	for _, r := range reqs {
		toks = append(toks, r.tokens)
		n += len(r.tokens)
	}
	return toks, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// soloRef is one greedy generation on the reference's solo engine.
func soloRef(ref *reference, prompt []int, n int) ([]int, error) {
	var out []int
	err := ref.generateAll([]job{{prompt: prompt, n: n, out: &out}})
	return out, err
}

// TestWrappersDoNotChangeSolo shows the fetch wrapper and span recording
// leave the measured program alone: identical tokens and identical
// allocations per token, wrapped or not.
func TestWrappersDoNotChangeSolo(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	e := testEnv(t)
	gen, err := workload.NewGenerator(e.seed, e.cfg.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	prompts, err := gen.Prompts(2, soloPromptLen)
	if err != nil {
		t.Fatal(err)
	}
	plainToks, plainAllocs := soloAllocs(t, e, prompts, false)
	wrapToks, wrapAllocs := soloAllocs(t, e, prompts, true)
	for i := range plainToks {
		if !slices.Equal(plainToks[i], wrapToks[i]) {
			t.Fatalf("prompt %d: wrapped tokens %v, unwrapped %v", i, wrapToks[i], plainToks[i])
		}
	}
	// Whole generations allocate from the background prefetcher too, so
	// their count varies by ~0.1% between identical unwrapped runs with
	// goroutine timing; the fetch seam itself is pinned exactly below.
	if d := math.Abs(wrapAllocs-plainAllocs) / plainAllocs; d > 0.01 {
		t.Fatalf("allocs/token: wrapped %.3f, unwrapped %.3f", wrapAllocs, plainAllocs)
	}
	t.Logf("allocs/token: wrapped %.3f, unwrapped %.3f", wrapAllocs, plainAllocs)

	fst, _, err := openVerified(e.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	rec := newRecorder(1 << 16)
	rec.on.Store(true)
	ts := newTimedStore(fst, &fetchProbe{rec: rec, bytes: e.stored}, 1)
	buf := make([]float32, 0, 1<<20)
	for _, name := range []string{"w_fc1", "w_ln"} {
		bare := testing.AllocsPerRun(50, func() { _, _ = fst.TensorInto(2, name, buf) })
		wrapped := testing.AllocsPerRun(50, func() { _, _ = ts.TensorInto(2, name, buf) })
		if bare != wrapped {
			t.Fatalf("L2/%s fetch: %v allocs wrapped, %v bare", name, wrapped, bare)
		}
	}
	ref, err := newReference(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prompts {
		want, err := soloRef(ref, p.Tokens, soloGen)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want, plainToks[i]) {
			t.Fatalf("prompt %d: step engine %v, solo reference %v", i, plainToks[i], want)
		}
	}
}

// TestSelfTimes checks self time is duration minus the union of the
// children's covered intervals.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: kindRequest, parent: -1, start: 0, end: 100},
		{kind: kindForward, parent: 0, start: 10, end: 40},
		{kind: kindForward, parent: 0, start: 30, end: 50},
		{kind: kindForward, parent: 0, start: 90, end: 120},
	}
	self := selfTimes(spans, []int32{0, 1, 2, 3})
	if want := []int64{100 - 40 - 10, 30, 20, 30}; !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

// TestRunPrintsResult runs solo-ooc briefly untraced and traced, and
// prefix-batch traced (its plain half runs the untraced path), and
// checks the result has every metric the mode promises, correct and
// with no failed request.
func TestRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	// A smaller model than the benchmark's keeps the runs short under the
	// race detector; prefix-batch gets 2 s windows so that requests
	// complete in both.
	cfg := benchModel()
	cfg.Hidden = 128
	for _, c := range []struct {
		w       string
		trace   bool
		seconds float64
	}{{"solo-ooc", false, 1}, {"solo-ooc", true, 1}, {"prefix-batch", true, 4}} {
		e := &env{cfg: cfg, workload: c.w, seed: 3, seconds: c.seconds, trace: c.trace, setups: 1, workDir: t.TempDir(), log: io.Discard}
		res, err := execute(context.Background(), e, workloads[c.w])
		if err != nil {
			t.Fatalf("%s trace %v: %v", c.w, c.trace, err)
		}
		want := endToEnd
		if c.trace {
			want = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Fatalf("%s trace %v: result %+v", c.w, c.trace, res)
		}
		for _, m := range want {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Fatalf("%s trace %v: missing %s", c.w, c.trace, m.name)
			}
		}
	}
}

// TestPrefixedReference checks the prefix-batch reference, which reuses
// a document's KV caches across requests, against plain solo engines.
func TestPrefixedReference(t *testing.T) {
	e := testEnv(t)
	ref, err := newReference(e)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(e.seed, e.cfg.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := gen.Prompts(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	suffixes, err := gen.Prompts(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int, len(suffixes))
	var jobs []prefixJob
	for i, s := range suffixes {
		jobs = append(jobs, prefixJob{suffix: s.Tokens, n: 4 + i, out: &got[i]})
	}
	if err := ref.generatePrefixedAll([][]int{doc[0].Tokens}, map[int][]prefixJob{0: jobs}, []int{0}); err != nil {
		t.Fatal(err)
	}
	for i, s := range suffixes {
		want, err := soloRef(ref, append(slices.Clip(doc[0].Tokens), s.Tokens...), 4+i)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("suffix %d: prefixed %v, solo %v", i, got[i], want)
		}
	}
}

// TestMetricListsMatchBenchmarkFile keeps the reported metric names and
// units in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []nameUnit) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}

func TestBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
