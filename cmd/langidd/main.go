// Command langidd is the language-detection daemon: the serving
// subsystem of internal/serve behind a hardened listener, wired into
// the profile lifecycle so new profile versions go live without a
// restart.
//
// Serve the active version of a profile registry (see langid train
// -registry / langid profiles). SIGHUP or POST /admin/reload hot-swaps
// to the currently active version with zero downtime:
//
//	langidd -registry /var/lib/langid -addr :8080
//
// Serve from a flat trained profile file (see langid train -out):
//
//	langidd -profiles profiles.bin -addr :8080
//
// The daemon only serves: langid train builds the profiles, into a
// registry or a file. For development without a real corpus, generate
// a synthetic one, train on it, then serve:
//
//	corpusgen -out corpusdir -docs 80 -words 300 -train 0.2 -seed 8
//	langid train -corpus corpusdir -out profiles.bin
//	langidd -profiles profiles.bin
//
// Endpoints: POST /detect, POST /batch, POST /stream (NDJSON; ?spans=1
// adds per-document mixed-language spans), POST /segment
// (mixed-language span tiling; /segment and /stream?spans=1 are both
// tuned via -segment-window, -segment-stride, -segment-penalty),
// GET /healthz, GET /statsz, and — when registry-backed —
// GET /admin/profiles and POST /admin/reload. Failed requests are
// answered with JSON error bodies (413 for oversized bodies, 408 for
// request read timeouts). The daemon drains in-flight requests on
// SIGINT/SIGTERM before exiting.
//
// There is no backend flag: profiles are served on the exact
// direct-lookup kernel at every n, 6-grams included; /statsz names it.
//
// The daemon links the product packages alone (internal/core, serve
// and registry, and the alphabet, ngram and train packages they
// import); the paper's Bloom filters, hardware models and
// experiment harness live with their own commands.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/registry"
	"bloomlang/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("langidd: ")

	addr := flag.String("addr", ":8080", "listen address")
	registryDir := flag.String("registry", "", "profile registry directory to serve the active version of")
	profilePath := flag.String("profiles", "", "trained profile file to serve from")
	minMargin := flag.Float64("min-margin", 0, "answer unknown below this normalized winner margin")
	minNGrams := flag.Int("min-ngrams", 1, "answer unknown below this many testable n-grams")
	maxBody := flag.Int64("max-body", 10<<20, "max /detect, /batch and /segment body bytes")
	maxBatch := flag.Int("max-batch", 1024, "max documents per /batch request")
	maxLine := flag.Int("max-line", 1<<20, "max NDJSON line bytes on /stream")
	// Read/write timeouts are absolute per-request limits, not idle
	// limits, so they default off: /stream exchanges legitimately run
	// for hours. Deployments without long-lived streams should set
	// both.
	readTimeout := flag.Duration("read-timeout", 0, "max time to read one request, including long /stream uploads (0 = unlimited; tripped reads answer 408)")
	writeTimeout := flag.Duration("write-timeout", 0, "max time to write one response, including long /stream downloads (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle timeout (0 = unlimited)")
	counts := flag.Bool("counts", false, "include per-language match counts in batch/stream responses")
	segWindow := flag.Int("segment-window", 0, "/segment and /stream?spans=1 commit horizon in n-grams, a multiple of the stride (0 = default 4096)")
	segStride := flag.Int("segment-stride", 0, "/segment and /stream?spans=1 chunk length in n-grams, the boundary granularity, at most 255 (0 = default 16)")
	segPenalty := flag.Int("segment-penalty", 0, "/segment and /stream?spans=1 score one language change costs, in n-gram matches (0 = default 8)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	flag.Parse()

	cfg := serve.Config{
		MinMargin:     *minMargin,
		MinNGrams:     *minNGrams,
		MaxBodyBytes:  *maxBody,
		MaxBatchDocs:  *maxBatch,
		MaxLineBytes:  *maxLine,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		IdleTimeout:   *idleTimeout,
		IncludeCounts: *counts,
		Segment: core.SegmentConfig{
			Window:  *segWindow,
			Stride:  *segStride,
			Penalty: *segPenalty,
		},
	}
	srv, err := buildServer(*registryDir, *profilePath, cfg)
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := srv.HTTPServer(*addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	stats := srv.Stats()
	version := stats.ProfileVersion
	if version == "" {
		version = "unversioned"
	}
	log.Printf("serving %d languages on %s (profiles %s, backend %s)",
		len(stats.Languages), *addr, version, stats.Backend)

	for {
		select {
		case err := <-errc:
			log.Fatal(err)
		case <-hup:
			status, err := srv.Reload()
			switch {
			case err != nil:
				log.Printf("SIGHUP reload failed: %v", err)
			case status.Changed:
				log.Printf("SIGHUP reload: now serving %s (was %s)", status.Active, status.Previous)
			default:
				log.Printf("SIGHUP reload: %s already active", status.Active)
			}
			continue
		case <-ctx.Done():
		}
		break
	}
	log.Print("shutting down, draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// buildServer constructs the serving subsystem over the registry's
// active version or over a trained profile file, exactly one of the
// two. Every misconfiguration fails fast with a clear message instead
// of falling through to a half-configured server.
func buildServer(registryDir, profilePath string, cfg serve.Config) (*serve.Server, error) {
	switch {
	case registryDir != "" && profilePath != "":
		return nil, errors.New("-registry cannot be combined with -profiles")
	case registryDir != "":
		reg, err := registry.Open(registryDir)
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewFromRegistry(reg, cfg)
		if errors.Is(err, registry.ErrNoActive) {
			return nil, fmt.Errorf("registry %s has no active version: create one with 'langid train -registry %s -activate'",
				registryDir, registryDir)
		}
		return srv, err
	case profilePath != "":
		ps, err := registry.LoadFile(profilePath)
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("profile file %s does not exist: train one with 'langid train -out %s'",
				profilePath, profilePath)
		}
		if err != nil {
			return nil, fmt.Errorf("loading profiles: %w", err)
		}
		log.Printf("loaded %d profiles from %s", len(ps.Profiles), profilePath)
		return serve.New(ps, cfg)
	}
	return nil, errors.New("no profiles to serve: pass -registry DIR or -profiles FILE")
}
