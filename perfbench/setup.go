package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"helmsim/internal/checkpoint"
	"helmsim/internal/gateway"
	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/server"
)

// benchModel is the OPT-bench shape cmd/inferbench measures (h=256,
// 4 blocks, vocab 1024). MaxSeq is raised to 512 so the shared-prefix
// prompts plus their generations fit one context.
func benchModel() model.Config {
	return model.Config{
		Name: "OPT-bench", Hidden: 256, Heads: 4, Blocks: 4,
		Vocab: 1024, MaxSeq: 512, DTypeBytes: 2,
	}
}

// Shape of the prefix-batch fleet.
const (
	replicas   = 2
	maxSeqs    = 8
	kvPages    = 512
	pageTokens = 16
	maxTokens  = 64
	retries    = 3
	// callers is the closed loop's size: enough to fill every replica's
	// sequence cap.
	callers     = replicas * maxSeqs
	fleetWarmup = 2 * time.Second
)

// synthesize writes a 4-bit checkpoint with weights drawn from seed
// into dir and returns its path and size in bytes.
func synthesize(cfg model.Config, dir string, seed int64) (string, int64, error) {
	w, err := infer.RandomWeights(cfg, seed, 0.06)
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.hlmc", cfg.Name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	qc := quant.Default()
	if err := infer.WriteCheckpoint(f, cfg, w, &qc); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, st.Size(), nil
}

// storedBytes maps layer -> tensor name -> bytes the tensor occupies in
// the checkpoint, the transfer volume of one fetch. It is read-only
// after construction, so fetch wrappers look it up without locking.
type storedBytes map[int]map[string]int64

func readStoredBytes(cfg model.Config, path string) (storedBytes, error) {
	ix, err := checkpoint.OpenIndexed(path)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	sb := storedBytes{}
	for _, l := range cfg.Layers() {
		sb[l.Index] = map[string]int64{}
		for _, spec := range l.Weights {
			e, err := ix.ReadTensor(infer.TensorKey(l.Index, spec.Name))
			if err != nil {
				return nil, err
			}
			sb[l.Index][spec.Name] = int64(e.StoredBytes)
		}
	}
	return sb, nil
}

// openVerified opens the checkpoint out of core and CRC-verifies every
// record, the work server.Config.OpenStore documents. It returns the
// time the two calls took.
func openVerified(path string) (*infer.FileStore, time.Duration, error) {
	start := time.Now()
	fst, err := infer.OpenFileStore(path)
	if err != nil {
		return nil, 0, err
	}
	if err := fst.Verify(); err != nil {
		fst.Close()
		return nil, 0, fmt.Errorf("checkpoint integrity: %w", err)
	}
	return fst, time.Since(start), nil
}

// fleet is the in-process serving stack of prefix-batch: replica
// daemons in continuous-batching mode behind one gateway, served over
// one loopback listener that speaks HTTP/2 cleartext.
type fleet struct {
	servers []*server.Server
	gw      *gateway.Gateway
	srv     *http.Server
	ln      net.Listener
	url     string
	served  chan error
	cancel  context.CancelFunc
	probeWG <-chan struct{}
}

// fleetOpts carries the checkpoint and what tracing installs: a fetch wrapper per replica store and a transport wrapper
// per replica, both nil when untraced.
type fleetOpts struct {
	cfg       model.Config
	ckpt      string
	opens     *[]float64 // checkpoint open+verify ms, one per OpenStore call
	wrapStore func(replica int, fst *infer.FileStore) infer.WeightStore
	wrapRT    func(replica int, rt http.RoundTripper) http.RoundTripper
	wrapGW    func(http.Handler) http.Handler
}

// h2cProtocols restricts a server or client to HTTP/2 without TLS, so
// every in-flight request multiplexes over one loopback connection.
func h2cProtocols() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// startFleet builds the replicas, the gateway and the listener, and
// returns once the gateway has probed every replica ready.
func startFleet(ctx context.Context, o fleetOpts) (*fleet, error) {
	f := &fleet{served: make(chan error, 1)}
	ctx, f.cancel = context.WithCancel(ctx)
	var backends []gateway.BackendConfig
	for i := 0; i < replicas; i++ {
		i := i
		open := func() (infer.WeightStore, io.Closer, error) {
			fst, d, err := openVerified(o.ckpt)
			if err != nil {
				return nil, nil, err
			}
			*o.opens = append(*o.opens, ms(d))
			if o.wrapStore != nil {
				return o.wrapStore(i, fst), fst, nil
			}
			return fst, fst, nil
		}
		s, err := server.New(ctx, server.Config{
			Model:     o.cfg,
			OpenStore: open,
			Workers:   maxSeqs,
			MaxQueue:  64,
			MaxTokens: maxTokens,
			Retry:     infer.Retry{Max: retries},
			Batch:     server.BatchConfig{Enabled: true, MaxSeqs: maxSeqs, KVPages: kvPages, PageTokens: pageTokens},
		})
		if err != nil {
			f.stop(ctx)
			return nil, err
		}
		f.servers = append(f.servers, s)
		var rt http.RoundTripper = gateway.HandlerTransport{Handler: s.Handler()}
		if o.wrapRT != nil {
			rt = o.wrapRT(i, rt)
		}
		backends = append(backends, gateway.BackendConfig{
			Name:   fmt.Sprintf("r%d", i),
			URL:    fmt.Sprintf("http://r%d", i),
			Client: &http.Client{Transport: rt},
		})
	}
	gw, err := gateway.New(ctx, gateway.Config{Backends: backends, Route: gateway.RouteLeastLoad})
	if err != nil {
		f.stop(ctx)
		return nil, err
	}
	f.gw = gw
	gw.ProbeOnce(ctx)
	f.probeWG = gw.Start(ctx)
	for _, b := range gw.Stats().Backends {
		if !b.Ready {
			f.stop(ctx)
			return nil, fmt.Errorf("replica %s not ready after the first probe round", b.Name)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop(ctx)
		return nil, err
	}
	f.ln = ln
	f.url = "http://" + ln.Addr().String()
	var h http.Handler = gw.Handler()
	if o.wrapGW != nil {
		h = o.wrapGW(h)
	}
	f.srv = &http.Server{Handler: h, Protocols: h2cProtocols(), ReadHeaderTimeout: 10 * time.Second}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// stop drains the gateway, then every replica, stops the listener and
// the probe loop, and waits for all of them. It reports the first
// failure.
func (f *fleet) stop(ctx context.Context) error {
	var errs []error
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if f.gw != nil {
		errs = append(errs, f.gw.Drain(dctx))
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Shutdown(dctx))
		if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, s := range f.servers {
		errs = append(errs, s.Drain(dctx))
	}
	f.cancel()
	if f.probeWG != nil {
		<-f.probeWG
	}
	return errors.Join(errs...)
}
