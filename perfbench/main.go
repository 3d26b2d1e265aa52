// Command perfbench is the repository benchmark: it builds the serving
// stack in-process from the public Go API, drives one workload for a
// fixed time, checks every response against a solo engine, and prints
// one JSON result line. See README.md beside this file for the
// workloads, the metrics and what each one should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload solo-ooc --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// half on a plain stack and half on a stack with the timing wrappers
// recording, reports the per-layer metrics and writes a Chrome trace
// file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json
// order, with their units.
var endToEnd = []nameUnit{
	{"setup_s", "s"},
	{"e2e_p50_ms", "ms"},
	{"e2e_p90_ms", "ms"},
	{"tok_s", "tokens/s"},
}

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// does not pass through reports 0.
var perLayer = []nameUnit{
	{"gateway.forward_p50_ms", "ms"},
	{"gateway.overhead_p50_ms", "ms"},
	{"gateway.attempts_per_req", "ratio"},
	{"server.queue_p90_ms", "ms"},
	{"server.service_p50_ms", "ms"},
	{"server.shed_ratio", "ratio"},
	{"batch.occupancy_avg", "seqs/step"},
	{"batch.tokens_per_step", "tokens/step"},
	{"batch.steps_per_s", "1/s"},
	{"batch.preemptions", "count"},
	{"kvcache.prefix_hit_rate", "ratio"},
	{"kvcache.shared_token_share", "ratio"},
	{"kvcache.page_util_max", "ratio"},
	{"kvcache.evictions", "count"},
	{"kvcache.cow_copies", "count"},
	{"infer.fetches_per_token", "fetches/token"},
	{"infer.fetch_p50_us", "us"},
	{"infer.fetch_busy_share", "ratio"},
	{"infer.prefetch_hit_rate", "ratio"},
	{"infer.weight_bytes_per_token", "B/token"},
	{"infer.ttft_p50_ms", "ms"},
	{"infer.tbt_p50_ms", "ms"},
	{"proc.allocs_per_token", "allocs/token"},
	{"proc.alloc_bytes_per_token", "B/token"},
	{"proc.gc_cycles", "count"},
	{"checkpoint.open_verify_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type nameUnit struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"solo-ooc":     runSolo,
	"prefix-batch": runPrefixBatch,
}

// setups is how many times a run sets its stack up; setup_s is their
// median.
const setups = 7

// env is what every workload runner gets.
type env struct {
	cfg       model.Config
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setups    int
	ckpt      string
	ckptBytes int64
	stored    storedBytes
	workDir   string
	log       io.Writer
}

// window is the measured interval of a run: the whole run untraced, or
// each half of a traced run.
func (e *env) window() time.Duration {
	d := time.Duration(e.seconds * float64(time.Second))
	if e.trace {
		return d / 2
	}
	return d
}

// row is one reported value with its sample count (0 for derived
// values).
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// outcome is a finished run: its rows, request ledger and verdict.
type outcome struct {
	rows       []row
	meta       map[string]any
	sent       int
	succeeded  int
	refused    int
	failed     int
	mismatches int
	ledgerOK   bool
}

func (o *outcome) add(name string, v float64, unit string, n int) {
	o.rows = append(o.rows, row{name, v, unit, n})
}

func (o *outcome) value(name string) (row, bool) {
	for _, r := range o.rows {
		if r.name == name {
			return r, true
		}
	}
	return row{}, false
}

func (o *outcome) correct() bool { return o.mismatches == 0 && o.ledgerOK }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solo-ooc, prefix-batch")
	seed := fs.Int64("seed", 1, "workload and weight seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload solo-ooc|prefix-batch, --seconds > 0, --trace 0|1\n")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{
		cfg: benchModel(), workload: *name, seed: *seed, seconds: *seconds,
		trace: *trace == 1, setups: setups, workDir: filepath.Join(".bench_build", "perfbench"), log: stdout,
	}
	res, err := execute(ctx, e, run)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

// execute synthesizes the checkpoint, runs the workload, prints the
// report and assembles the result line.
func execute(ctx context.Context, e *env, run func(context.Context, *env) (*outcome, error)) (*result, error) {
	path, size, err := synthesize(e.cfg, e.workDir, e.seed)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	e.ckpt, e.ckptBytes = path, size
	if e.stored, err = readStoredBytes(e.cfg, path); err != nil {
		return nil, err
	}
	o, err := run(ctx, e)
	if err != nil {
		return nil, err
	}
	printReport(e, o)

	res := &result{
		Correct:   o.correct(),
		Attempted: max(o.sent, 1),
		Failed:    o.sent - o.succeeded,
		Metrics:   map[string]metric{},
	}
	list := endToEnd
	if e.trace {
		list = perLayer
	}
	for _, m := range list {
		r, ok := o.value(m.name)
		switch {
		case ok:
			res.Metrics[m.name] = metric{r.value, m.unit}
		case e.trace:
			res.Metrics[m.name] = metric{0, m.unit}
		default:
			return nil, fmt.Errorf("workload %s did not measure %s", e.workload, m.name)
		}
		if math.IsNaN(res.Metrics[m.name].Value) || math.IsInf(res.Metrics[m.name].Value, 0) {
			return nil, fmt.Errorf("%s is not a number", m.name)
		}
	}
	return res, nil
}

// printReport writes the human-readable report: host and run metadata,
// then every measured value with its unit and sample count.
func printReport(e *env, o *outcome) {
	meta := map[string]any{
		"workload":          e.workload,
		"seed":              e.seed,
		"seconds":           e.seconds,
		"trace":             e.trace,
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"tensor_parallel":   tensor.Parallelism(),
		"go_version":        runtime.Version(),
		"goos":              runtime.GOOS,
		"goarch":            runtime.GOARCH,
		"model":             fmt.Sprintf("%s h=%d heads=%d blocks=%d vocab=%d maxseq=%d 4-bit", e.cfg.Name, e.cfg.Hidden, e.cfg.Heads, e.cfg.Blocks, e.cfg.Vocab, e.cfg.MaxSeq),
		"checkpoint_bytes":  e.ckptBytes,
		"setups":            e.setups,
		"requests_sent":     o.sent,
		"requests_ok":       o.succeeded,
		"requests_refused":  o.refused,
		"requests_failed":   o.failed,
		"token_mismatches":  o.mismatches,
		"ledgers_conserved": o.ledgerOK,
	}
	for k, v := range o.meta {
		meta[k] = v
	}
	if b, err := json.Marshal(map[string]any{"host_and_run": meta}); err == nil {
		fmt.Fprintln(e.log, string(b))
	}
	rows := append([]row(nil), o.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		if r.n > 0 {
			fmt.Fprintf(e.log, "  %-30s %14.4f %-13s n=%d\n", r.name, r.value, r.unit, r.n)
		} else {
			fmt.Fprintf(e.log, "  %-30s %14.4f %s\n", r.name, r.value, r.unit)
		}
	}
	errRatio := 0.0
	if o.sent > 0 {
		errRatio = float64(o.refused+o.failed) / float64(o.sent)
	}
	fmt.Fprintf(e.log, "  %-30s %14.4f %-13s n=%d\n", "error_ratio", errRatio, "ratio", o.sent)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs, and the
// sample count.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))], len(s)
}

// addPct adds a percentile row.
func (o *outcome) addPct(name string, xs []float64, p float64, unit string) {
	v, n := percentile(xs, p)
	o.add(name, v, unit, n)
}
