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
// Serve from a flat trained profile file (see langid train -out or
// -save):
//
//	langidd -profiles profiles.bin -addr :8080
//
// Train from a corpus directory (cmd/corpusgen layout), save the
// profiles, then serve:
//
//	langidd -corpus corpusdir -save profiles.bin
//
// For development without a real corpus, generate a synthetic one
// first:
//
//	corpusgen -out corpusdir -docs 80 -words 300 -train 0.2 -seed 8
//	langidd -corpus corpusdir -save profiles.bin
//
// Endpoints: POST /detect, POST /batch, POST /stream (NDJSON; ?spans=1
// adds per-document mixed-language spans), POST /segment
// (mixed-language span tiling; tuned via -segment-window,
// -segment-stride, -segment-penalty),
// GET /healthz, GET /statsz, and — when registry-backed —
// GET /admin/profiles and POST /admin/reload. Failed requests are
// answered with JSON error bodies (413 for oversized bodies, 408 for
// request read timeouts). The daemon drains in-flight requests on
// SIGINT/SIGTERM before exiting.
//
// There is no backend flag: profiles are served on the exact
// direct-lookup table, or on the paper's parallel Bloom filter when
// they were trained at an n too large for the table (n = 6). /statsz
// reports which.
//
// The daemon links the product packages alone (internal/core, serve,
// registry and train); the paper's hardware models and experiment
// harness live with their own commands.
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
	"bloomlang/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("langidd: ")

	addr := flag.String("addr", ":8080", "listen address")
	registryDir := flag.String("registry", "", "profile registry directory to serve the active version of")
	profilePath := flag.String("profiles", "", "trained profile file to serve from")
	corpusDir := flag.String("corpus", "", "corpus directory to train from (corpusgen layout)")
	savePath := flag.String("save", "", "write trained profiles to this file before serving")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	minMargin := flag.Float64("min-margin", 0, "answer unknown below this normalized winner margin")
	minNGrams := flag.Int("min-ngrams", 1, "answer unknown below this many testable n-grams")
	maxBody := flag.Int64("max-body", 10<<20, "max /detect and /batch body bytes")
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
	segWindow := flag.Int("segment-window", 0, "/segment commit horizon in n-grams, a multiple of the stride (0 = default 4096)")
	segStride := flag.Int("segment-stride", 0, "/segment chunk length in n-grams, the boundary granularity (0 = default 16)")
	segPenalty := flag.Int("segment-penalty", 0, "/segment score one language change costs, in n-gram matches (0 = default 8)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	flag.Parse()

	cfg := serve.Config{
		Workers:       *workers,
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
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	srv, version, err := buildServer(profileSource{
		registryDir: *registryDir,
		profilePath: *profilePath,
		corpusDir:   *corpusDir,
		savePath:    *savePath,
	}, cfg)
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
	if version == "" {
		version = "unversioned"
	}
	log.Printf("serving %d languages on %s (profiles %s, backend %s, %d workers)",
		len(stats.Languages), *addr, version, stats.Backend, stats.Workers)

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

// profileSource names where the daemon's profiles come from.
type profileSource struct {
	registryDir string
	profilePath string
	corpusDir   string
	savePath    string
}

// buildServer resolves the profile source and constructs the serving
// subsystem, returning the served profile version ("" for
// non-registry sources). Every misconfiguration fails fast with a
// clear message instead of falling through to a half-configured
// server.
func buildServer(src profileSource, cfg serve.Config) (*serve.Server, string, error) {
	if src.registryDir != "" {
		if src.profilePath != "" || src.corpusDir != "" || src.savePath != "" {
			return nil, "", errors.New("-registry cannot be combined with -profiles, -corpus or -save")
		}
		reg, err := registry.Open(src.registryDir)
		if err != nil {
			return nil, "", err
		}
		srv, err := serve.NewFromRegistry(reg, cfg)
		if errors.Is(err, registry.ErrNoActive) {
			return nil, "", fmt.Errorf("registry %s has no active version: create one with 'langid train -registry %s -activate'",
				src.registryDir, src.registryDir)
		}
		if err != nil {
			return nil, "", err
		}
		return srv, srv.Stats().ProfileVersion, nil
	}
	ps, err := resolveProfiles(src)
	if err != nil {
		return nil, "", err
	}
	if src.savePath != "" {
		if err := ps.SaveFile(src.savePath); err != nil {
			return nil, "", fmt.Errorf("saving profiles: %w", err)
		}
		log.Printf("saved %d profiles to %s", len(ps.Profiles), src.savePath)
	}
	srv, err := serve.New(ps, cfg)
	return srv, "", err
}

// resolveProfiles resolves a non-registry profile source from, in
// order of preference: an existing profile file or a corpus directory.
func resolveProfiles(src profileSource) (*core.ProfileSet, error) {
	if src.profilePath != "" {
		ps, err := core.LoadProfileSetFile(src.profilePath)
		if err == nil {
			log.Printf("loaded %d profiles from %s", len(ps.Profiles), src.profilePath)
			return ps, nil
		}
		if errors.Is(err, os.ErrNotExist) && src.corpusDir != "" {
			log.Printf("profile file %s not found, training", src.profilePath)
		} else if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("profile file %s does not exist: train one with 'langid train -out %s', or pass -corpus to train at startup",
				src.profilePath, src.profilePath)
		} else {
			return nil, fmt.Errorf("loading profiles: %w", err)
		}
	}
	if src.corpusDir != "" {
		log.Printf("training from corpus %s (streaming)", src.corpusDir)
		ps, stats, err := train.Dir(core.DefaultConfig(), src.corpusDir)
		if err != nil {
			return nil, err
		}
		log.Printf("trained on %d documents (%.1f MB)", stats.Docs, float64(stats.Bytes)/1e6)
		return ps, nil
	}
	return nil, errors.New("no profiles to serve: pass -registry DIR, -profiles FILE or -corpus DIR")
}
