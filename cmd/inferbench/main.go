// Command inferbench measures the executable engine's decode hot path —
// blocked kernels, group dequantization, and end-to-end lockstep
// generation across the store tiers (in-memory, quantized, on-disk via
// read syscalls or mmap, with and without layer prefetch) — and writes
// the results as JSON (BENCH_3.json in the repo's benchmark trajectory).
//
// Beyond serial-vs-parallel wall times, every generate row
// records allocations and bytes per token (runtime.ReadMemStats deltas
// around the timed generation) and tokens/sec, so the zero-alloc decode
// claims are measured, not asserted. Rows form identity groups — all
// mem rows, all quant rows, all file rows — and each row's tokens are
// compared bit-for-bit against its group's baseline; any divergence
// fails the run. (File rows form their own group because WriteCheckpoint
// stores norm gains and biases as fp16, so file-served outputs differ
// from the in-memory quantized store's by that rounding.)
//
// Usage:
//
//	inferbench -out BENCH_3.json
//	inferbench -quick -threads 4 -machine-note "laptop, AC power"
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// KernelResult is one serial-vs-parallel kernel comparison.
type KernelResult struct {
	Name       string  `json:"name"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// GenResult is one end-to-end lockstep generation configuration.
type GenResult struct {
	Name string `json:"name"`
	// Store is the weight tier: mem, quant, or file.
	Store string `json:"store"`
	// Parallelism is the kernel worker count the row ran at.
	Parallelism int `json:"parallelism"`
	// PrefetchDepth is the look-ahead depth (0: no prefetch).
	PrefetchDepth int `json:"prefetch_depth,omitempty"`
	// Mmap reports whether the file store served mmap views.
	Mmap         bool    `json:"mmap,omitempty"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	// AllocsPerToken and BytesPerToken are runtime.ReadMemStats
	// Mallocs/TotalAlloc deltas over the timed generation, divided by
	// the total tokens generated (batch * gen).
	AllocsPerToken float64 `json:"allocs_per_token"`
	BytesPerToken  float64 `json:"bytes_per_token"`
	// Identical reports bit-identity against the row's group baseline.
	Identical bool `json:"identical"`
}

// Chaos is the fault-injection experiment: the same lockstep generation
// over the on-disk store, but with a seeded transient-read fault plan
// between checkpoint and engine. Identical output with zero errors is
// the resilience claim; DegradedFetches counts background prefetches
// that failed and were absorbed by foreground retries.
type Chaos struct {
	FaultRate       float64 `json:"fault_rate"`
	FaultSeed       int64   `json:"fault_seed"`
	Retries         int     `json:"retries"`
	Accesses        int64   `json:"accesses"`
	Transients      int64   `json:"transients"`
	DegradedFetches int     `json:"degraded_fetches"`
	ElapsedNs       int64   `json:"elapsed_ns"`
	Identical       bool    `json:"identical"`
}

// Report is the BENCH_3.json document.
type Report struct {
	Schema     string `json:"schema"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Threads    int    `json:"threads"`
	// MachineNote describes the host (-machine-note); when the runtime
	// exposes too few CPUs for kernel scaling, a caveat is appended
	// automatically so single-core numbers are never mistaken for
	// parallel regressions.
	MachineNote string         `json:"machine_note,omitempty"`
	Model       string         `json:"model"`
	Batch       int            `json:"batch"`
	Gen         int            `json:"gen"`
	Runs        int            `json:"runs"`
	Kernels     []KernelResult `json:"kernels"`
	Generate    []GenResult    `json:"generate"`
	Chaos       *Chaos         `json:"chaos,omitempty"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_3.json", "output JSON path")
		threads = flag.Int("threads", 0, "parallel worker count (<=0: GOMAXPROCS)")
		hidden  = flag.Int("hidden", 256, "hidden dimension of the bench model")
		blocks  = flag.Int("blocks", 4, "decoder blocks of the bench model")
		vocab   = flag.Int("vocab", 1024, "vocabulary of the bench model")
		batch   = flag.Int("batch", 4, "sequences decoded in lockstep")
		gen     = flag.Int("gen", 6, "tokens generated per sequence")
		runs    = flag.Int("runs", 3, "timing repetitions (best is reported)")
		quick   = flag.Bool("quick", false, "shrink sizes for CI smoke runs")
		note    = flag.String("machine-note", "", "free-form host description recorded in the report")

		faultRate = flag.Float64("fault-rate", 0.05, "chaos experiment: transient fault probability per tensor read (0 disables)")
		faultSeed = flag.Int64("fault-seed", 42, "chaos experiment: fault plan seed")
		retries   = flag.Int("retries", 8, "chaos experiment: max foreground retries per failed fetch")
	)
	flag.Parse()
	if *quick {
		*hidden, *blocks, *vocab, *gen, *runs = 128, 2, 512, 3, 1
	}
	// Ctrl-C (or SIGTERM) cancels the bench context so a long run dies at
	// the next generation step instead of finishing the whole suite.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *out, *note, *threads, *hidden, *blocks, *vocab, *batch, *gen, *runs, *faultRate, *faultSeed, *retries); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "inferbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "inferbench:", err)
		os.Exit(1)
	}
}

// best times fn over runs repetitions and returns the minimum.
func best(runs int, fn func() error) (time.Duration, error) {
	bestD := time.Duration(1<<63 - 1)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < bestD {
			bestD = d
		}
	}
	return bestD, nil
}

// genConfig describes one end-to-end generation row.
type genConfig struct {
	name        string
	store       string // identity-group key: mem, quant, file
	parallelism int
	depth       int  // 0: plain (unprefetched) engine
	mmap        bool // file tier only: serve mmap views
}

func run(ctx context.Context, out, note string, threads, hidden, blocks, vocab, batch, gen, runs int, faultRate float64, faultSeed int64, retries int) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if runs < 1 {
		runs = 1
	}
	mc := model.Config{
		Name: "OPT-bench", Hidden: hidden, Heads: 4, Blocks: blocks,
		Vocab: vocab, MaxSeq: 256, DTypeBytes: 2,
	}
	if err := mc.Validate(); err != nil {
		return err
	}
	rep := &Report{
		Schema: "helmsim/bench-3", NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Threads:     threads,
		MachineNote: note,
		Model:       fmt.Sprintf("%s h=%d blocks=%d vocab=%d", mc.Name, hidden, blocks, vocab),
		Batch:       batch, Gen: gen, Runs: runs,
	}
	if rep.GoMaxProcs < 4 {
		caveat := fmt.Sprintf("host exposes %d CPU(s) to the runtime: compute-bound parallel speedups are "+
			"not observable here (prefetch can still overlap I/O); re-run on a >=4-core host for the "+
			"kernel-scaling numbers", rep.GoMaxProcs)
		if rep.MachineNote != "" {
			rep.MachineNote += "; " + caveat
		} else {
			rep.MachineNote = caveat
		}
	}

	timeAt := func(par int, fn func() error) (time.Duration, error) {
		prev := tensor.SetParallelism(par)
		defer tensor.SetParallelism(prev)
		return best(runs, fn)
	}
	addKernel := func(name string, fn func() error) error {
		s, err := timeAt(1, fn)
		if err != nil {
			return err
		}
		p, err := timeAt(threads, fn)
		if err != nil {
			return err
		}
		rep.Kernels = append(rep.Kernels, KernelResult{
			Name: name, SerialNs: s.Nanoseconds(), ParallelNs: p.Nanoseconds(),
			Speedup: float64(s) / float64(p),
		})
		return nil
	}

	// --- Kernels ---------------------------------------------------------
	a := randMat(batch*32, hidden)
	w := randMat(hidden, 4*hidden)
	if err := addKernel(fmt.Sprintf("matmul_prefill_%dx%dx%d", a.R, hidden, 4*hidden), func() error {
		_, err := tensor.MatMul(a, w)
		return err
	}); err != nil {
		return err
	}
	d := randMat(1, hidden)
	if err := addKernel(fmt.Sprintf("matmul_decode_1x%dx%d", hidden, 4*hidden), func() error {
		_, err := tensor.MatMul(d, w)
		return err
	}); err != nil {
		return err
	}
	table := randMat(vocab*8, hidden)
	if err := addKernel(fmt.Sprintf("matmulT_logits_1x%dx%d", hidden, vocab*8), func() error {
		_, err := tensor.MatMulT(d, table)
		return err
	}); err != nil {
		return err
	}

	// --- Dequantization --------------------------------------------------
	qx := make([]float32, 1<<21)
	for i := range qx {
		qx[i] = float32(i%509)/509 - 0.5
	}
	qt, err := quant.Quantize(qx, quant.Default())
	if err != nil {
		return err
	}
	if err := addKernel("dequantize_2Mi_elems", func() error {
		if got := qt.Dequantize(); len(got) != len(qx) {
			return fmt.Errorf("bad dequant length %d", len(got))
		}
		return nil
	}); err != nil {
		return err
	}
	dq := make([]float32, len(qx))
	if err := addKernel("dequantize_into_2Mi_elems", func() error {
		if got := qt.DequantizeInto(dq); len(got) != len(qx) {
			return fmt.Errorf("bad dequant length %d", len(got))
		}
		return nil
	}); err != nil {
		return err
	}

	// --- End to end: GenerateBatch across the store tiers -----------------
	raw, err := infer.RandomWeights(mc, 3, 0.05)
	if err != nil {
		return err
	}
	qs, err := infer.Quantize(mc, raw, quant.Default())
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "inferbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "bench.hlmc")
	f, err := os.Create(ckpt)
	if err != nil {
		return err
	}
	qc := quant.Default()
	if err := infer.WriteCheckpoint(f, mc, raw, &qc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	prompts := make([][]int, batch)
	for i := range prompts {
		prompts[i] = []int{1 + i, 2, 3}
	}
	totalTokens := float64(batch * gen)

	openStore := func(c genConfig) (infer.WeightStore, func() error, error) {
		switch c.store {
		case "mem":
			return raw, nil, nil
		case "quant":
			return qs, nil, nil
		case "file":
			open := infer.OpenFileStore
			if c.mmap {
				open = infer.OpenFileStoreMmap
			}
			fs, err := open(ckpt)
			if err != nil {
				return nil, nil, err
			}
			return fs, fs.Close, nil
		}
		return nil, nil, fmt.Errorf("unknown store tier %q", c.store)
	}
	runConfig := func(c genConfig) (got [][]int, elapsed time.Duration, allocs, bytes float64, err error) {
		store, closeStore, err := openStore(c)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if closeStore != nil {
			defer func() {
				if cerr := closeStore(); cerr != nil && err == nil {
					err = cerr
				}
			}()
		}
		prev := tensor.SetParallelism(c.parallelism)
		defer tensor.SetParallelism(prev)
		elapsed = time.Duration(1<<63 - 1)
		for r := 0; r < runs; r++ {
			var be *infer.BatchEngine
			if c.depth > 0 {
				be, err = infer.NewBatchPrefetchedOpts(ctx, mc, store, batch, infer.Retry{},
					infer.PrefetchOpts{Depth: c.depth, Recycle: true})
			} else {
				be, err = infer.NewBatch(mc, store, batch)
			}
			if err != nil {
				return nil, 0, 0, 0, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			got, err = be.GenerateBatchContext(ctx, prompts, gen)
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if cerr := be.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				return nil, 0, 0, 0, err
			}
			if d < elapsed {
				elapsed = d
				allocs = float64(after.Mallocs-before.Mallocs) / totalTokens
				bytes = float64(after.TotalAlloc-before.TotalAlloc) / totalTokens
			}
		}
		return got, elapsed, allocs, bytes, nil
	}

	configs := []genConfig{
		{name: "mem_serial", store: "mem", parallelism: 1},
		{name: "mem_parallel", store: "mem", parallelism: threads},
		{name: "quant_serial", store: "quant", parallelism: 1},
		{name: "quant_parallel", store: "quant", parallelism: threads},
		{name: "file_serial", store: "file", parallelism: 1},
		{name: "file_prefetch", store: "file", parallelism: threads, depth: 1},
		{name: "file_prefetch_l2", store: "file", parallelism: threads, depth: 2},
		{name: "file_mmap_prefetch", store: "file", parallelism: threads, depth: 1, mmap: true},
		{name: "file_mmap_prefetch_l2", store: "file", parallelism: threads, depth: 2, mmap: true},
	}
	baselines := map[string][][]int{}
	for _, c := range configs {
		got, elapsed, allocs, bytes, err := runConfig(c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		want, seen := baselines[c.store]
		if !seen {
			baselines[c.store] = got
			want = got
		}
		identical := equalTokens(want, got)
		rep.Generate = append(rep.Generate, GenResult{
			Name: c.name, Store: c.store, Parallelism: c.parallelism,
			PrefetchDepth: c.depth, Mmap: c.mmap,
			ElapsedNs:      elapsed.Nanoseconds(),
			TokensPerSec:   totalTokens / elapsed.Seconds(),
			AllocsPerToken: allocs, BytesPerToken: bytes,
			Identical: identical,
		})
		if !identical {
			return fmt.Errorf("%s: output diverged from the %s-tier baseline", c.name, c.store)
		}
	}

	// --- Chaos: generation under injected transient read faults ----------
	if faultRate > 0 {
		fs, err := infer.OpenFileStore(ckpt)
		if err != nil {
			return err
		}
		defer fs.Close()
		want := baselines["file"]
		faults, err := fault.NewStore(fs, fault.Plan{Seed: faultSeed, TransientRate: faultRate})
		if err != nil {
			return err
		}
		be, err := infer.NewBatchPrefetchedResilient(mc, faults, batch, infer.Retry{Max: retries})
		if err != nil {
			return err
		}
		start := time.Now()
		got, err := be.GenerateBatchContext(ctx, prompts, gen)
		elapsed := time.Since(start)
		degraded := be.DegradedFetches()
		if cerr := be.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("chaos generation failed (rate %.2f, seed %d): %w", faultRate, faultSeed, err)
		}
		st := faults.Stats()
		rep.Chaos = &Chaos{
			FaultRate: faultRate, FaultSeed: faultSeed, Retries: retries,
			Accesses: st.Accesses, Transients: st.Transients,
			DegradedFetches: degraded, ElapsedNs: elapsed.Nanoseconds(),
			Identical: equalTokens(want, got),
		}
		if !rep.Chaos.Identical {
			return fmt.Errorf("chaos generation diverged from the fault-free run")
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	for _, r := range rep.Kernels {
		fmt.Printf("%-40s serial %10.3fms  parallel %10.3fms  speedup %.2fx\n",
			r.Name, float64(r.SerialNs)/1e6, float64(r.ParallelNs)/1e6, r.Speedup)
	}
	for _, g := range rep.Generate {
		fmt.Printf("%-40s %10.3fms  %8.1f tok/s  %8.1f allocs/tok  identical=%v\n",
			g.Name, float64(g.ElapsedNs)/1e6, g.TokensPerSec, g.AllocsPerToken, g.Identical)
	}
	if c := rep.Chaos; c != nil {
		fmt.Printf("%-40s %d/%d reads failed, %d degraded fetches, identical=%v (%.3fms)\n",
			fmt.Sprintf("chaos_rate%.2f_seed%d", c.FaultRate, c.FaultSeed),
			c.Transients, c.Accesses, c.DegradedFetches, c.Identical, float64(c.ElapsedNs)/1e6)
	}
	fmt.Printf("wrote %s (threads=%d, gomaxprocs=%d)\n", out, threads, rep.GoMaxProcs)
	return nil
}

// randMat fills a matrix with a cheap deterministic pattern (benchmark
// inputs need realistic density, not realistic statistics).
func randMat(r, c int) tensor.Mat {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = float32((i*2654435761)%1024)/1024 - 0.5
	}
	return m
}

// equalTokens compares two generation outputs exactly.
func equalTokens(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
