package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"helmsim/internal/infer"
	"helmsim/internal/model"
)

// reference computes the expected greedy tokens outside the timed
// window, from an in-memory copy of the served checkpoint: the file
// store's decoded tensors, so the weights are bit-identical to what the
// out-of-core path dequantizes on every fetch.
type reference struct {
	cfg model.Config
	mem *infer.MemStore
}

func newReference(e *env) (*reference, error) {
	fst, err := infer.OpenFileStore(e.ckpt)
	if err != nil {
		return nil, err
	}
	defer fst.Close()
	mem := infer.NewMemStore()
	for _, l := range e.cfg.Layers() {
		for _, spec := range l.Weights {
			d, err := fst.Tensor(l.Index, spec.Name)
			if err != nil {
				return nil, err
			}
			mem.Put(l.Index, spec.Name, d)
		}
	}
	return &reference{cfg: e.cfg, mem: mem}, nil
}

// job is one reference generation: prompt, length, and the slot its
// tokens land in.
type job struct {
	prompt []int
	n      int
	out    *[]int
}

// generateAll runs solo generations on GOMAXPROCS workers, one engine
// each.
func (r *reference) generateAll(jobs []job) error {
	workers := min(runtime.GOMAXPROCS(0), max(len(jobs), 1))
	ch := make(chan job)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng, err := infer.New(r.cfg, r.mem)
			if err != nil {
				errs[w] = err
			}
			for j := range ch {
				if errs[w] != nil {
					continue
				}
				eng.Reset()
				*j.out, errs[w] = eng.Generate(j.prompt, j.n)
			}
		}(w)
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// viewStore serves the in-memory weights to a step engine without
// copying: its layer memo asks for TensorInto, and the weights are
// read-only, so the stored slice itself is returned.
type viewStore struct{ mem *infer.MemStore }

func (v viewStore) Tensor(layer int, name string) ([]float32, error) {
	return v.mem.TensorView(layer, name)
}

func (v viewStore) TensorInto(layer int, name string, _ []float32) ([]float32, error) {
	return v.mem.TensorView(layer, name)
}

// prefixJob is one shared-prefix request: the suffix after the shared
// document, and the generation length.
type prefixJob struct {
	suffix []int
	n      int
	out    *[]int
}

// generatePrefixed computes greedy generations for many prompts that
// share doc as a prefix, one sequence at a time on a step engine with
// private KV caches: the document is prefilled once, and each request
// truncates the caches back to it before prefilling its own suffix.
// That is the continuous batcher's prefix reuse, so the caller anchors
// it against generate on at least one full prompt per document.
func (r *reference) generatePrefixed(doc []int, jobs []prefixJob) error {
	se, err := infer.NewStepEngine(r.cfg, viewStore{r.mem})
	if err != nil {
		return err
	}
	defer se.Close()
	kv := infer.NewBlockCaches(r.cfg)
	seq := infer.StepSeq{Tokens: doc, KV: kv}
	if _, err := se.Step([]*infer.StepSeq{&seq}); err != nil {
		return err
	}
	for _, j := range jobs {
		if len(j.suffix) == 0 {
			return fmt.Errorf("reference: empty suffix")
		}
		for _, kb := range kv {
			kb.Truncate(len(doc))
		}
		seq := infer.StepSeq{Tokens: j.suffix, Pos: len(doc), KV: kv}
		var tok [1]int
		out := make([]int, 0, j.n)
		for len(out) < j.n {
			logits, err := se.Step([]*infer.StepSeq{&seq})
			if err != nil {
				return err
			}
			tok[0] = logits[0].ArgmaxRow(0)
			out = append(out, tok[0])
			seq.Pos += len(seq.Tokens)
			seq.Tokens = tok[:]
		}
		*j.out = out
	}
	return nil
}

// generatePrefixedAll runs generatePrefixed for every document, on up to
// GOMAXPROCS workers.
func (r *reference) generatePrefixedAll(docs [][]int, jobs map[int][]prefixJob, order []int) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, d := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = r.generatePrefixed(docs[d], jobs[d])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
