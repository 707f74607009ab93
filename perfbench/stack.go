package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/registry"
	"bloomlang/internal/serve"
	"bloomlang/internal/train"
)

// stack is the serving path built the way langidd builds it when given
// only a profile registry: the zero-value serve.Config, so every
// setting, the backend included, is the daemon's default.
type stack struct {
	srv     *serve.Server
	hs      *http.Server
	reg     *registry.Registry
	dir     string
	base    string
	served  chan error
	backend string
	version string
	times   setupTimes
}

// setupTimes are the raw durations of one set-up.
type setupTimes struct {
	total      time.Duration // start to first answered request
	train      time.Duration
	create     time.Duration // registry Create + Activate
	trainBytes int64
}

// startStack stream-trains the training split, stores and activates it
// in a fresh registry under dir, builds the server from the registry
// and serves it on a loopback port. wrap, when non-nil, wraps the
// server's handler. It returns once the first request is answered.
func startStack(dir string, w *workload, wrap func(http.Handler) http.Handler, client *http.Client) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st := &stack{dir: dir, served: make(chan error, 1)}
	t0 := time.Now()
	tr, err := train.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, lang := range w.langs {
		for _, doc := range w.train[lang] {
			if err := tr.Add(lang, doc); err != nil {
				tr.Abort()
				return nil, fmt.Errorf("training: %w", err)
			}
		}
	}
	ps, stats, err := tr.Finalize()
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	t1 := time.Now()
	st.reg, err = registry.Open(dir)
	if err != nil {
		return nil, err
	}
	m, err := st.reg.Create(ps, stats)
	if err != nil {
		return nil, err
	}
	if err := st.reg.Activate(m.Version); err != nil {
		return nil, err
	}
	t2 := time.Now()
	st.srv, err = serve.NewFromRegistry(st.reg, serve.Config{})
	if err != nil {
		return nil, err
	}
	st.hs = st.srv.HTTPServer("127.0.0.1:0")
	if wrap != nil {
		st.hs.Handler = wrap(st.hs.Handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	go func() { st.served <- st.hs.Serve(ln) }()
	resp, err := client.Get(st.base + "/healthz")
	if err != nil {
		st.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	t3 := time.Now()
	if resp.StatusCode != http.StatusOK {
		st.close()
		return nil, fmt.Errorf("/healthz answered %d", resp.StatusCode)
	}
	st.times = setupTimes{total: t3.Sub(t0), train: t1.Sub(t0), create: t2.Sub(t1), trainBytes: stats.Bytes}
	s := st.srv.Stats()
	st.backend, st.version = s.Backend, s.ProfileVersion
	return st, nil
}

// loadTimes replays the two halves of NewFromRegistry on the stack's
// registry: loading the active version, and building the classifier
// for the served backend.
func (st *stack) loadTimes() (load, build time.Duration, err error) {
	t0 := time.Now()
	ps, _, err := st.reg.LoadActive()
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	b, err := core.ParseBackend(st.backend)
	if err != nil {
		return 0, 0, err
	}
	if _, err := core.New(ps, b); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// close stops the listener, waits for Serve to return and removes the
// registry.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}
