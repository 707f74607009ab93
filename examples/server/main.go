// Server: the language-detection microservice — the kind of service a
// search-engine indexer or spam-filter front-end (§1) would call. The
// heavy lifting lives in the library's serving subsystem (see
// bloomlang.NewServerFromRegistry and cmd/langidd for the production
// daemon); this example walks the whole profile lifecycle: stream a
// training corpus into the streaming trainer, version the profiles in a
// registry, serve the active version, exercise the detection
// endpoints as a client, then train a second version and hot-swap to
// it through the admin plane with zero downtime. The segmentation
// endpoints are listed below; examples/segment walks segmentation.
//
// API (see internal/serve):
//
//	POST /detect          one document      -> {"language":"es","name":"Spanish",...}
//	POST /batch           JSON array        -> array of detections, input order
//	POST /stream          NDJSON documents  -> NDJSON detections, incremental
//	POST /stream?spans=1  NDJSON documents  -> NDJSON detections, each with its spans
//	POST /segment         one document      -> {"bytes":...,"spans":[{"start":0,"end":...,"language":"en",...}]}
//	GET  /healthz         liveness          -> 200 ok
//	GET  /statsz          serving counters  -> JSON snapshot (+ profile version)
//	GET  /admin/profiles  version inventory -> serving vs active version
//	POST /admin/reload    hot swap          -> {"previous":...,"active":...}
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bloomlang"
)

func main() {
	log.SetFlags(0)

	// Generate a small corpus to disk and stream it through the
	// streaming trainer — the corpus never materializes in trainer
	// memory (cf. langid train -corpus).
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 80,
		WordsPerDoc:     300,
		TrainFraction:   0.2,
		Seed:            8,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "bloomlang-server")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	corpusDir := filepath.Join(dir, "corpus")
	if err := corp.WriteDir(corpusDir); err != nil {
		log.Fatal(err)
	}
	profiles, stats, err := bloomlang.TrainDir(bloomlang.DefaultConfig(), corpusDir)
	if err != nil {
		log.Fatal(err)
	}

	// Version the profiles in a registry and activate — the lifecycle
	// a production rollout follows (cf. langid train -registry -activate).
	reg, err := bloomlang.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		log.Fatal(err)
	}
	v1, err := reg.Create(profiles, stats)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Activate(v1.Version); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registry: created and activated %s (%d docs, %.1f MB trained)\n\n",
		v1.Version, stats.Docs, float64(stats.Bytes)/1e6)

	// A 1% margin floor: near-ties come back unknown instead of guessed.
	srv, err := bloomlang.NewServerFromRegistry(reg, bloomlang.ServeConfig{MinMargin: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("language detection service on %s\n\n", ts.URL)
	client := &http.Client{Timeout: 5 * time.Second}

	// One document through /detect.
	resp, err := client.Post(ts.URL+"/detect", "text/plain", strings.NewReader(
		"el consejo y la comision adoptan todas las medidas necesarias para la aplicacion del presente reglamento"))
	if err != nil {
		log.Fatal(err)
	}
	var det bloomlang.Detection
	if err := json.NewDecoder(resp.Body).Decode(&det); err != nil {
		log.Fatalf("/detect: %v", err)
	}
	resp.Body.Close()
	fmt.Printf("/detect  -> %s (%s), score %.2f, margin %.2f over %d n-grams\n\n",
		det.Language, det.Name, det.Score, det.Margin, det.NGrams)

	// A document set through /batch, classified by the worker pool.
	batch, _ := json.Marshal([]string{
		"kommissionen skall anta de bestammelser som ar nodvandiga for tillampningen",
		"komissio antaa asetuksen soveltamista koskevat tarpeelliset saannokset",
		"the council shall adopt the measures necessary for this regulation",
	})
	resp, err = client.Post(ts.URL+"/batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		log.Fatal(err)
	}
	var dets []bloomlang.Detection
	if err := json.NewDecoder(resp.Body).Decode(&dets); err != nil {
		log.Fatalf("/batch: %v", err)
	}
	resp.Body.Close()
	for i, d := range dets {
		fmt.Printf("/batch %d -> %s (%s), score %.2f\n", i, d.Language, d.Name, d.Score)
	}
	fmt.Println()

	// An NDJSON stream: one result line per document line.
	ndjson := `{"id":"a","text":"a comissao adota as medidas necessarias para a aplicacao do presente regulamento"}
{"id":"b","text":"le conseil arrete les dispositions necessaires pour la mise en oeuvre du present reglement"}
`
	resp, err = client.Post(ts.URL+"/stream", "application/x-ndjson", strings.NewReader(ndjson))
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d bloomlang.Detection
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			log.Fatalf("/stream: %v", err)
		}
		fmt.Printf("/stream %s -> %s (%s)\n", d.ID, d.Language, d.Name)
	}
	resp.Body.Close()
	fmt.Println()

	// Health and serving counters; /statsz names the profile version.
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("health: %s\n", resp.Status)
	stats1 := getStats(client, ts.URL)
	fmt.Printf("stats: serving %s; %d detect, %d batch docs, %d stream docs across %d languages (%d unknown)\n\n",
		stats1.ProfileVersion,
		stats1.Endpoints["/detect"].Docs,
		stats1.Endpoints["/batch"].Docs,
		stats1.Endpoints["/stream"].Docs,
		len(stats1.Languages),
		stats1.Endpoints["/detect"].Unknown+stats1.Endpoints["/batch"].Unknown+stats1.Endpoints["/stream"].Unknown)

	// The admin plane: retrain with a tighter profile, version it,
	// activate, and hot-swap the running server — zero downtime, no
	// restart (cf. langidd SIGHUP / POST /admin/reload).
	cfg2 := bloomlang.DefaultConfig()
	cfg2.TopT = 3000
	profiles2, stats2, err := bloomlang.TrainDir(cfg2, corpusDir)
	if err != nil {
		log.Fatal(err)
	}
	v2, err := reg.Create(profiles2, stats2)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Activate(v2.Version); err != nil {
		log.Fatal(err)
	}
	var inventory bloomlang.ProfilesStatus
	getJSON(client, ts.URL+"/admin/profiles", &inventory)
	fmt.Printf("/admin/profiles -> serving %s, active %s, %d versions\n",
		inventory.Serving, inventory.Active, len(inventory.Versions))

	resp, err = client.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	var reload bloomlang.ReloadStatus
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil {
		log.Fatalf("/admin/reload: %v", err)
	}
	resp.Body.Close()
	fmt.Printf("/admin/reload   -> %s live (was %s, changed=%v)\n",
		reload.Active, reload.Previous, reload.Changed)
	if got := getStats(client, ts.URL).ProfileVersion; got != v2.Version {
		log.Fatalf("statsz reports %s after reload, want %s", got, v2.Version)
	}
	fmt.Printf("/statsz         -> profile_version %s\n", v2.Version)
}

func getStats(client *http.Client, base string) bloomlang.ServeStats {
	var stats bloomlang.ServeStats
	getJSON(client, base+"/statsz", &stats)
	return stats
}

func getJSON(client *http.Client, url string, v any) {
	resp, err := client.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatalf("%s: %v", url, err)
	}
}
