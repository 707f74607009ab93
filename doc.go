// Package bloomlang is a pure-Go reproduction of "Language
// Classification using N-grams Accelerated by FPGA-based Bloom Filters"
// (Jacob & Gokhale, HPRCTA'07): n-gram language classification with
// Parallel Bloom Filter membership testing (§3.2), served as a library
// and an HTTP daemon. This package is the product API: detection,
// training, profile files and the registry, serving, plus the
// synthetic corpus and the accuracy and throughput scoring the
// examples and langid eval use. The paper's measurement apparatus — a
// cycle-accounted simulation of the XtremeData XD1000 platform, the
// HAIL and Mguesser-style Cavnar-Trenkle baselines, the Stratix II
// resource models and the Table 1–4 harness — lives in internal
// packages reached through its own commands (see Architecture).
//
// # Quick start
//
// Detector is the single entry point for classification: train (or
// load) profiles, build a detector, detect.
//
//	corp, _ := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
//		DocsPerLanguage: 100, WordsPerDoc: 400, TrainFraction: 0.1, Seed: 1,
//	})
//	profiles, _ := bloomlang.Train(bloomlang.DefaultConfig(), corp)
//	det, _ := bloomlang.NewDetector(profiles)
//	m := det.Detect([]byte("el reglamento del consejo sobre la política agrícola"))
//	fmt.Println(m.Lang, m.Score, m.Margin) // "es 0.87 0.45"
//
// Every Match carries the winning language, the raw match count, the
// normalized confidence score (Count/NGrams), and the §5.1 winner
// margin — the quantity whose size over the Bloom false-positive noise
// is why the paper's filters barely cost accuracy. Documents that
// cannot be called confidently come back with Unknown set instead of a
// silently tie-broken guess:
//
//	det, _ := bloomlang.NewDetector(profiles,
//		bloomlang.WithBackend(bloomlang.BackendBlocked), // default direct; or bloom / classic
//		bloomlang.WithWorkers(8),                        // DetectBatch fan-out
//		bloomlang.WithMinMargin(0.02),                   // ties and near-ties -> Unknown
//		bloomlang.WithMinNGrams(8),                      // short docs -> Unknown
//	)
//
// Beyond one-shot Detect, the detector ranks candidates, fans out over
// batches, and consumes streams:
//
//	ranked := det.Rank(doc, 3)                  // top-3 languages by match count
//	matches := det.DetectBatch(docs)            // docs [][]byte; input order kept
//	m, err := det.DetectReader(file)            // bounded memory
//	st := det.NewStream()                       // incremental: Write chunks, then
//	st.Write(chunk); m = st.Match()             // read the running decision
//
// All of these count through one Stream type: Detect, Rank and the
// batch workers borrow pooled Streams, so there is one counting loop
// for every path, and it runs from raw bytes to counts in one pass. Raw per-language match counts ride along on
// every path, appended to caller scratch in Languages() order, and
// corpus scoring (Evaluate, Measure) runs over the same batch path:
//
//	counts, m := det.DetectCounts(buf[:0], doc) // one document
//	counts, ms := det.DetectBatchCounts(nil, docs) // row-major, one row per document
//	counts = st.AppendCounts(counts[:0])        // a stream's running counts
//	ev := bloomlang.Evaluate(det, corp)         // per-language accuracy, confusion
//	rep := bloomlang.Measure(det, corp.TestDocuments("")) // MB/s over DetectBatch
//
// DocumentTexts turns a corpus's []Document into the [][]byte the batch
// paths take. The single-document hot path reuses a Stream from the
// detector's pool, so a warm Detect performs zero heap allocations (see
// BenchmarkDetector), and a Stream's WriteString counts a string
// without copying it.
//
// # Membership backends
//
// The membership structure is one of a closed set of four backends:
// an exact direct table ("direct-lookup"/"direct", the default), the
// paper's Parallel Bloom Filter ("parallel-bloom"/"bloom"), a classic
// single-vector Bloom filter ("classic-bloom"/"classic"), and a fused
// cache-line-blocked Bloom filter ("blocked-bloom"/"blocked").
// ParseBackend resolves a canonical name or alias (the CLIs' -backend
// flag is exactly this) and Backend.String round-trips it back. Each
// backend counts through one kernel built over the whole profile set,
// which scores every language for each n-gram in one call and counts
// straight from a document's raw bytes.
//
// The default backend is HAIL's direct table (§2) generalised from one
// language per packed n-gram to a language bitmask per packed n-gram:
// one uint16 plane of 2^20 entries (2 MiB at n=4) answers for up to 16
// languages, and each further 16 languages add a plane. Scoring an
// n-gram against every language is one table load instead of the
// parallel backend's k probes per language, and membership is exact,
// so there are no false positives to outvote. Its Count is the paper's
// datapath in one loop: translate a byte, shift it into the n-gram
// register, load the n-gram's language mask, and add the mask into
// per-language byte lanes held in two registers, four characters per
// step, with no n-gram stored on the way. The table grows as
// 2^(5n), so the direct backend refuses n >= 6 (2 GiB per plane) and
// names the blocked backend instead. Zero-value configurations —
// NewDetector without WithBackend, ServeConfig{}, langidd and the
// langid classify/segment commands — all serve it.
//
// The blocked backend is the software analogue of the paper's
// one-clock membership test. The hardware answers all k hash probes in
// a single cycle because its bit-vectors are physically parallel RAMs
// (§3.1); the blocked filter gets the same effect from the cache
// hierarchy: the first H3 hash selects one 64-byte block — a single
// cache line — and the remaining k−1 hashes select bits inside it, so
// a membership test costs one line fill regardless of k. The filters
// of all L languages are fused into one structure, laid out
// block-major and language-minor with one shared hash stage:
//
//	                 lang 0     lang 1         lang L-1
//	block 0      [64 bytes] [64 bytes] ... [64 bytes]
//	block 1      [64 bytes] [64 bytes] ... [64 bytes]
//	...
//	block B-1    [64 bytes] [64 bytes] ... [64 bytes]
//
//	n-gram g:  h0(g) picks the block row — computed once —
//	           h1..h(k-1)(g) pick the probe bits — computed once —
//	           then the L adjacent blocks of that row are tested in
//	           sequence: one pass over L consecutive cache lines
//	           scores every language (AccumulateInto).
//
// Per-language filters are sized (power-of-two block count) so the
// modelled false-positive rate at full profile load is no worse than
// the parallel backend's §3.1 model under the same Config; the n-gram
// scoring loop runs several times faster than the parallel backend
// because hashing is shared across languages and probes never leave
// one cache line per language. Prefer "direct" for software serving;
// "blocked" when the n-gram space outgrows a table (n >= 6); "bloom"
// when software classifications must match the simulated hardware
// bit-for-bit (the XD1000, RTL and VHDL models build the same parallel
// filters from the profile set); "classic" exists as an ablation. SaveProfilesBlocked embeds the programmed blocked
// layout in the profile file (NGPS v2), so a daemon serving "blocked"
// skips filter programming at startup; v1 files and legacy NGPF
// streams remain readable, and damaged files fail with errors tagged
// ErrCorruptProfiles.
//
// # Segmentation
//
// Real traffic is full of mixed-language documents — quoted replies,
// code-switched chat, bilingual pages — where one label is simply
// wrong. DetectSpans answers with a tiling of contiguous
// single-language spans instead:
//
//	spans, _ := det.DetectSpans(doc, bloomlang.SegmentConfig{})
//	for _, sp := range spans {
//		fmt.Printf("[%d,%d) %s score %.2f\n", sp.Start, sp.End, sp.Lang, sp.Score)
//	}
//
// The mechanism reuses the counting pass unchanged and runs it exactly
// once per document: the bytes are cut where each Stride of n-grams
// completes, each piece is counted by the backend's Kernel straight
// into one row of a Window/Stride-row ring, and a sliding window of
// Window n-grams is the rolling sum of the ring — add the newest
// chunk, subtract the oldest. No n-gram is ever re-extracted or
// re-hashed for a second window, and warm segmentation makes 0
// allocs/op (AppendSpans with a reused destination; see
// BenchmarkDetectSpans).
//
// Window arg-max decisions pass through hysteresis before a boundary
// is believed: a new language must win Hysteresis consecutive windows,
// and interrupted challenges fold back into the incumbent, so one
// noisy window never fragments a span. Boundaries are attributed to
// the center of the first window that voted for the new language and
// land within about one stride of the decision flip. Optional
// Smoothing (an EWMA over window counts) further steadies boundaries
// on choppy text. Windows that fail the detector's MinMargin /
// MinNGrams policy become explicit Unknown spans. The returned spans
// always tile [0, len(doc)) with no gaps or overlaps; a document
// shorter than one window is decided whole, exactly as Detect decides
// it.
//
// All four backends segment; geometry is per call:
//
//	SegmentConfig{Window: 96, Stride: 24}  // finer boundaries: smaller Stride
//	SegmentConfig{Hysteresis: 3}           // calmer boundaries: more persistence
//	SegmentConfig{Smoothing: 0.5}          // steadier arg-max on choppy text
//
// Streaming and reader variants mirror the detection paths —
// DetectSpansReader for bounded-memory files, NewSpanStream for
// incremental feeds. NewSpanStream returns the same Stream type as
// NewStream with windowing on (Write chunks in any splits; Spans
// returns the boundaries finalized so far, Finish closes the document;
// identical output to one-shot for identical bytes; Match and
// AppendCounts still give the whole-document answer):
//
//	st, _ := det.NewSpanStream(bloomlang.SegmentConfig{})
//	st.Write(chunk)
//	done := st.Spans()     // finalized so far
//	all := st.Finish()     // the complete tiling
//
// The segmentation quality gate lives in testdata/golden_segments.json:
// deterministic mixed-language documents with known boundaries
// (cmd/corpusgen -mixed writes the same ground truth to disk) and
// per-language byte-F1 floors every backend must clear. From the
// command line, langid segment prints, tabulates (-tsv) or colors
// (-color) a file's spans; over HTTP, POST /segment returns the span
// tiling and /stream?spans=1 attaches spans to every NDJSON result.
//
// # Architecture
//
// The library is organized as the paper's system is:
//
//   - alphabet conversion (8-bit extended ASCII to 5-bit codes),
//   - n-gram extraction and top-t profile training,
//   - H3-hashed Parallel Bloom Filters (one per language),
//   - the Detector: multi-language match counting with ranked results,
//     confidence thresholding, batch (goroutine-parallel) and stream
//     execution paths,
//   - the XD1000 system model: HyperTransport link, DMA, command
//     protocol, watchdog, and synchronous/asynchronous host drivers,
//   - baselines: HAIL (direct SRAM lookup) and Cavnar-Trenkle rank
//     ordering.
//
// The first four are the product, exported here; cmd/langidd links
// them with the serving layer, the registry and the trainer, and
// nothing else. The hardware models and baselines are the paper's
// measurement apparatus, reached through their commands:
// cmd/experiments regenerates every table and figure of the paper's
// evaluation (Tables 1–4, Figure 4, the confusion and subsampling
// studies), cmd/xd1000sim streams a corpus through the simulated
// XD1000, cmd/designspace sweeps the §5.2 Bloom filter design space,
// and cmd/vhdlgen exports a trained profile file as synthesizable
// VHDL.
//
// # Profile lifecycle
//
// Training, versioning, activation and serving are decoupled, the way
// the paper's deployment separates offline profile construction from
// the hardware that serves them (§2). The streaming trainer ingests
// documents incrementally — whole documents, io.Readers, NDJSON
// streams, or corpus directory trees — and counts n-grams across
// sharded, mergeable accumulators, so a training corpus never has to
// fit in memory; its output is byte-identical to Train on the same
// documents:
//
//	tr, _ := bloomlang.NewTrainer(bloomlang.DefaultConfig(), bloomlang.WithShards(4))
//	tr.Add("es", doc)                       // one document at a time
//	tr.AddReader("en", file)                // streamed, chunk by chunk
//	tr.AddNDJSON(r)                         // {"lang": "es", "text": "..."} lines
//	tr.AddDir("corpus")                     // corpusgen layout, file by file
//	profiles, stats, _ := tr.Finalize()
//
// Trained profiles become immutable, checksummed versions in an
// on-disk registry; exactly one version is active at a time, and the
// rollback history makes bad rollouts reversible:
//
//	reg, _ := bloomlang.OpenRegistry("/var/lib/langid")
//	m, _ := reg.Create(profiles, stats)     // -> v000007, not yet live
//	reg.Activate(m.Version)                 // CURRENT -> v000007
//	reg.Rollback()                          // back to the previous version
//	reg.GC(3)                               // drop old inactive versions
//
// The same lifecycle from the command line, end to end:
//
//	langid train -corpus corpusdir -registry /var/lib/langid -activate
//	langid profiles -registry /var/lib/langid            # list versions
//	langidd -registry /var/lib/langid -addr :8080        # serve the active version
//	langid train -ndjson fresh.ndjson -registry /var/lib/langid -activate
//	curl -X POST :8080/admin/reload                      # hot-swap, zero downtime
//	langid profiles -registry /var/lib/langid -rollback  # then reload again
//
// A running server reaches its detector through a hot-swap handle (an
// atomic pointer to an immutable (detector, version) snapshot), so
// Reload — triggered by SIGHUP or POST /admin/reload — is
// zero-downtime: requests in flight finish on the detector they
// started with, requests arriving after the swap see the new version,
// and no request ever blocks or observes a torn state.
//
// # Serving
//
// The serving subsystem (internal/serve, re-exported as NewServer /
// NewServerFromRegistry) routes all endpoints through the current
// detector snapshot. Responses carry the score/margin/unknown fields;
// /statsz counts unknown-classified documents separately per endpoint
// and names the serving profile version; failed requests are answered
// with a JSON error body ({"error": ..., "status": ...}) — 413 for
// oversized bodies, 408 for request-body read timeouts:
//
//	POST /detect          one raw document        -> one JSON detection
//	POST /batch           JSON array of documents -> array of detections,
//	                      fanned out over the detector's workers, input
//	                      order preserved
//	POST /stream          NDJSON documents        -> NDJSON detections,
//	                      classified incrementally with bounded memory,
//	                      one result line flushed per input line
//	                      (?spans=1 adds each document's span tiling)
//	POST /segment         one raw document        -> its mixed-language
//	                      span tiling (window/stride geometry from
//	                      ServeConfig.Segment), spans counted on /statsz
//	GET  /healthz         liveness probe
//	GET  /statsz          request/byte/latency/unknown counters + version
//	GET  /admin/profiles  registry versions, serving vs active version
//	POST /admin/reload    hot-swap to the registry's active version
//
// The admin endpoints exist only on registry-backed servers and carry
// no authentication; deployments should expose /admin to operators
// only. Flat profile files remain supported for simple setups:
// SaveProfiles/LoadProfiles round-trip a ProfileSet (configuration
// included), so a restart costs a file read instead of a training run:
//
//	profiles, _ := bloomlang.LoadProfiles("profiles.bin")
//	srv, _ := bloomlang.NewServer(profiles, bloomlang.ServeConfig{MinMargin: 0.02})
//	http.ListenAndServe(":8080", srv.Handler())
//
// cmd/langidd is the production daemon around this handler: flags for
// address, backend, worker pool, confidence thresholds (-min-margin,
// -min-ngrams), body/batch/line limits and read/write/idle timeouts,
// profile sources (-registry, -profiles, -corpus, with -save), SIGHUP
// hot reload, and graceful drain on SIGINT/SIGTERM.
// examples/server walks the full serving surface, admin plane
// included, in one self-contained program.
package bloomlang
