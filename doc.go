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
//		bloomlang.WithBackend(bloomlang.BackendBloom), // default direct
//		bloomlang.WithMinMargin(0.02),                 // ties and near-ties -> Unknown
//		bloomlang.WithMinNGrams(8),                    // short docs -> Unknown
//	)
//
// Beyond one-shot Detect, the detector ranks candidates, fans out over
// batches, and consumes streams:
//
//	ranked := det.Rank(doc, 3)                  // top-3 languages by match count
//	matches := det.DetectBatch(docs)            // on GOMAXPROCS goroutines; input order kept
//	st := det.NewStream()                       // incremental: Write chunks, or
//	io.Copy(st, file); m := st.Match()          // copy a reader, then read the decision
//
// All of these count through one Stream type: Detect, Rank and the
// batch workers borrow pooled Streams, so there is one counting loop
// for every path, and it runs from raw bytes to counts in one pass.
// Raw per-language match counts are appended to caller scratch in
// Languages() order, and corpus scoring (Evaluate, Measure) runs over
// the batch path:
//
//	counts, m := det.DetectCounts(buf[:0], doc) // one document
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
// The membership structure is one of two backends: an exact table
// ("direct-lookup"/"direct", the default, and core's one built-in
// kernel) and the paper's Parallel Bloom Filter
// ("parallel-bloom"/"bloom", which lives with the paper's other models
// in internal/bloom). ParseBackend resolves a canonical name or alias
// (the CLIs' -backend flag is exactly this) and Backend.String
// round-trips it back; WithBackend hands the chosen kernel to the
// detector. Each backend counts through one kernel built over the whole
// profile set, which scores every language for each n-gram in one call.
//
// The default backend is HAIL's direct table (§2) generalised from one
// language per packed n-gram to a language bitmask per packed n-gram,
// and it is exact at every n, so there are no false positives to
// outvote. Up to n = 5 one uint16 plane of 2^(5n) entries (2 MiB at
// n=4) answers for up to 16 languages, and each further 16 languages
// add a plane. Scoring an n-gram against every language is one table
// load instead of the parallel backend's k probes per language. Its
// count is the paper's datapath in one loop: translate a byte, shift it
// into the n-gram register, load the n-gram's language mask, and add
// the mask into per-language byte lanes held in two registers, four
// characters per step, with no n-gram stored on the way. On amd64 CPUs
// with AVX2 the same loop runs sixteen n-grams at a time, chosen once
// at start: a vector translate, eight mask loads per gather
// instruction and a byte-lane count per group of sixteen, which
// counts a 5 KB document in about half the time (BenchmarkDetectCount
// times both loops). At n = 6 a
// plane would take 2 GiB, so the same masks sit in a compact
// open-addressed table over only the profiles' n-grams (one uint64 slot
// per n-gram, 2 MiB for 16 languages at t = 5000), probed once per
// n-gram. NewDetector without WithBackend and the langid
// classify/segment commands serve it. Servers have no backend option:
// ServeConfig{} and langidd serve every profile set on it, at every n.
//
// Use "bloom" when software classifications must match the simulated
// hardware bit-for-bit (the XD1000 and VHDL models build the same
// parallel filters from the profile set). Profile files hold the
// configuration and the profiles, languages in increasing order, in
// one format (NGPS version 1). Files in any other format, such as the
// NGPS version 2 and bare NGPF streams of older builds, are refused
// (rebuild them with langid train), and damaged files fail with errors
// tagged ErrCorruptProfiles.
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
// once per document: the bytes are cut where each chunk of 16 n-grams
// completes, each piece is counted by the document's Stream, each
// completed chunk keeps its counts as one byte per language, and takes
// one step of an exact integer Viterbi pass. The labelling it finds maximises the
// paper's match count summed over each span, less Penalty per language
// change (the language-switch model of Lui, Lau & Baldwin, TACL 2014).
// No n-gram is ever re-extracted or re-hashed, and warm segmentation
// makes 0 allocs/op (AppendSpans with a reused destination; see
// BenchmarkDetectSpans).
//
// Each span is decided by Detect's own rule over the span's n-grams:
// its counts are the sum of its chunks' counts, so Score, Margin
// and the MinMargin / MinNGrams policy (explicit Unknown spans) mean
// what they mean for Detect. The returned spans always tile
// [0, len(doc)) with no gaps or overlaps, and boundaries fall on chunk
// edges, every 16 n-grams (the counting kernel's group; Stride is fixed
// at 16, and Window must be a multiple of it). On a document of at most
// 2·Window n-grams, a Penalty at least its n-gram count makes the whole
// document one span, decided exactly as Detect decides it; past that,
// horizon commits can split it.
//
// Both backends segment; the configuration is per call:
//
//	SegmentConfig{Penalty: 16}  // fewer, longer spans: a dearer change
//	SegmentConfig{Penalty: 4}   // more, shorter spans: a cheaper change
//
// NewSpanStream gives incremental segmentation: the same Stream type as
// NewStream with segmentation on (Write chunks in any splits; Spans
// returns the spans every surviving path already agrees on, Finish
// closes the document; identical output to one-shot for identical
// bytes; Match and AppendCounts still give the whole-document answer).
// Window bounds the undecided tail, and with it the stream's memory: a
// chunk still in dispute is committed along the best path at the latest
// when the head is 2·Window n-grams past it.
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
// the hardware that serves them (§2). The streaming trainer is the one
// trainer (Train and TrainFromTexts run through it too). It ingests
// documents incrementally — whole documents, io.Readers, NDJSON
// streams, or corpus directory trees — and counts n-grams in the
// caller: the window that turns a detector's bytes into n-grams emits
// them a block at a time, and the trainer numbers and counts them, over
// one n-gram vocabulary shared by all languages with dense counts per
// language, so a training corpus never has to fit in memory; each
// language keeps its top t through a selection over its counts that
// sorts only the t winners, the languages ranked in parallel:
//
//	tr, _ := bloomlang.NewTrainer(bloomlang.DefaultConfig())
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
// A running server reaches its detector through one atomic pointer to
// an immutable snapshot of (detector, version, language table), so
// Reload — triggered by SIGHUP or POST /admin/reload — is
// zero-downtime: requests in flight finish on the snapshot they
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
//	                      counted in order on one pooled stream
//	POST /stream          NDJSON documents        -> NDJSON detections,
//	                      classified incrementally with bounded memory,
//	                      answers flushed before a read of the body
//	                      only where the body so far ends a line
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
// address, confidence thresholds (-min-margin, -min-ngrams),
// body/batch/line limits and read/write/idle timeouts, one profile
// source (-registry or -profiles; langid train builds both), SIGHUP
// hot reload, and graceful drain on SIGINT/SIGTERM.
// examples/server walks the full serving surface, admin plane
// included, in one self-contained program.
package bloomlang
