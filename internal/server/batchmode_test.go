package server

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"helmsim/internal/infer"
)

// TestBatchModeMatchesDirectEngine: the continuous-batching daemon
// returns byte-identical tokens to a solo engine for concurrent
// requests of different lengths, and /statz carries the batch snapshot
// with a conserved ledger.
func TestBatchModeMatchesDirectEngine(t *testing.T) {
	mc := tinyModel()
	path, w := writeCheckpoint(t, mc, 3)
	ref, err := infer.New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	type jobCase struct {
		prompt []int
		n      int
	}
	jobs := []jobCase{
		{[]int{1, 2, 3}, 8},
		{[]int{4, 5}, 3},
		{[]int{1, 2, 3, 4, 5, 6}, 5},
		{[]int{7}, 10},
		{[]int{1, 2, 3}, 2}, // same prefix as job 0: prefix-cache fodder
	}
	want := make([][]int, len(jobs))
	for i, j := range jobs {
		ref.Reset()
		want[i], err = ref.Generate(j.prompt, j.n)
		if err != nil {
			t.Fatal(err)
		}
	}

	s, ts := startServer(t, Config{
		Model: mc, OpenStore: fileOpener(path), Workers: 3,
		Batch: BatchConfig{MaxSeqs: 2, KVPages: 64, PageTokens: 4},
	})

	var wg sync.WaitGroup
	codes := make([]int, len(jobs))
	got := make([]GenerateResponse, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j jobCase) {
			defer wg.Done()
			codes[i], got[i], _ = postGenerate(t, ts.URL, GenerateRequest{Prompt: j.prompt, MaxTokens: j.n})
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if codes[i] != http.StatusOK {
			t.Fatalf("job %d: status %d", i, codes[i])
		}
		if !equalTokenSlices(got[i].Tokens, want[i]) {
			t.Fatalf("job %d diverged from solo engine: got %v, want %v", i, got[i].Tokens, want[i])
		}
	}

	st := s.Stats()
	if !st.Conserved() {
		t.Fatalf("ledger not conserved: %+v", st)
	}
	if st.Batch == nil {
		t.Fatal("the daemon must publish a batch snapshot")
	}
	if st.Batch.Completed != int(st.Served) || st.Batch.Steps == 0 {
		t.Fatalf("batch snapshot inconsistent with server counters: %+v vs served %d", st.Batch, st.Served)
	}
	if st.Batch.Pool.TotalPages != 64 {
		t.Fatalf("pool snapshot missing: %+v", st.Batch.Pool)
	}
}

// TestBatchModePagePressureSheds: a request whose worst-case context
// exceeds the whole page budget sheds at admission into its own
// conserved bucket.
func TestBatchModePagePressureSheds(t *testing.T) {
	mc := tinyModel()
	path, _ := writeCheckpoint(t, mc, 5)
	s, ts := startServer(t, Config{
		Model: mc, OpenStore: fileOpener(path), Workers: 1, MaxTokens: 64,
		// 4 pages of 4 = 16 positions total.
		Batch: BatchConfig{MaxSeqs: 2, KVPages: 4, PageTokens: 4},
	})
	code, _, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2, 3, 4}, MaxTokens: 32})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("oversized request: status %d (%s)", code, msg)
	}
	st := s.Stats()
	if st.ShedPagePressure != 1 {
		t.Fatalf("shed_page_pressure: got %d, want 1: %+v", st.ShedPagePressure, st)
	}
	if !st.Conserved() {
		t.Fatalf("ledger not conserved: %+v", st)
	}
	// A right-sized request still serves.
	code, _, msg = postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2, 3, 4}, MaxTokens: 8})
	if code != http.StatusOK {
		t.Fatalf("fitting request after shed: status %d (%s)", code, msg)
	}
}

// TestBatchModeHotReload: a reload quiesces the old batcher and serves
// later requests from the new generation's batcher, byte-identically
// to a solo engine on the new weights.
func TestBatchModeHotReload(t *testing.T) {
	mc := tinyModel()
	pathA, _ := writeCheckpoint(t, mc, 7)
	pathB, wB := writeCheckpoint(t, mc, 8)
	current := pathA
	var mu sync.Mutex
	s, ts := startServer(t, Config{
		Model: mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) {
			mu.Lock()
			p := current
			mu.Unlock()
			return fileOpener(p)()
		},
		Workers: 2,
		Batch:   BatchConfig{MaxSeqs: 2, KVPages: 64, PageTokens: 4},
	})

	prompt := []int{2, 4, 6}
	code, respA, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 6})
	if code != http.StatusOK {
		t.Fatalf("pre-reload request: status %d (%s)", code, msg)
	}

	mu.Lock()
	current = pathB
	mu.Unlock()
	if err := s.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}

	refB, err := infer.New(mc, wB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refB.Generate(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	code, respB, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 6})
	if code != http.StatusOK {
		t.Fatalf("post-reload request: status %d (%s)", code, msg)
	}
	if respB.Generation <= respA.Generation {
		t.Fatalf("generation did not advance: %d -> %d", respA.Generation, respB.Generation)
	}
	if !equalTokenSlices(respB.Tokens, want) {
		t.Fatalf("post-reload tokens diverged from new weights: got %v, want %v", respB.Tokens, want)
	}
	// The new batcher starts with a cold prefix cache and pool.
	if st := s.Stats(); st.Batch == nil || st.Batch.Pool.TotalPages != 64 {
		t.Fatalf("batch snapshot after reload: %+v", st.Batch)
	}
}

// TestBatchModeDrain: Drain completes in-flight batch requests and
// tears the batcher down exactly once.
func TestBatchModeDrain(t *testing.T) {
	mc := tinyModel()
	path, _ := writeCheckpoint(t, mc, 9)
	s, err := New(context.Background(), Config{
		Model: mc, OpenStore: fileOpener(path), Workers: 2,
		Batch: BatchConfig{MaxSeqs: 2, KVPages: 64, PageTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if st := s.Stats(); st.State != "stopped" {
		t.Fatalf("state after drain: %s", st.State)
	}
}

func equalTokenSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
