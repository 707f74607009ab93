// Package bloomlang is a pure-Go reproduction of "Language
// Classification using N-grams Accelerated by FPGA-based Bloom Filters"
// (Jacob & Gokhale, HPRCTA'07): n-gram language classification with
// Parallel Bloom Filter membership testing, together with a
// cycle-accounted simulation of the XtremeData XD1000 hardware platform
// the paper deployed on and the two baselines it compares against
// (the HAIL FPGA design and Mguesser-style Cavnar-Trenkle software).
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
// batch workers borrow pooled Streams, so there is one chunk-and-count
// loop for every path. Raw per-language match counts ride along on
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
// The membership structure is an open registry. Four ship built in:
// an exact direct table ("direct-lookup"/"direct", the default), the
// paper's Parallel Bloom Filter ("parallel-bloom"/"bloom"), a classic
// single-vector Bloom filter ("classic-bloom"/"classic"), and a fused
// cache-line-blocked Bloom filter ("blocked-bloom"/"blocked").
// ParseBackend resolves any registered name or alias (the CLIs' -backend
// flag is exactly this), Backend.String round-trips it back, and
// RegisterBackend plugs in new implementations. A backend is a Kernel
// built over the whole profile set; its AccumulateInto scores every
// language for each n-gram of a run, adding into one counter per
// language:
//
//	type myKernel struct{ sets []map[uint32]bool } // one set per language
//
//	func (k myKernel) AccumulateInto(counts []int, gs []uint32) {
//		for i, set := range k.sets {
//			for _, g := range gs {
//				if set[g] {
//					counts[i]++
//				}
//			}
//		}
//	}
//
//	mine := bloomlang.RegisterBackend("my-backend",
//		func(cfg bloomlang.Config, ps *bloomlang.ProfileSet) (bloomlang.Kernel, error) {
//			k := myKernel{}
//			for _, p := range ps.Profiles {
//				k.sets = append(k.sets, p.Set())
//			}
//			return k, nil
//		}, "mine")
//	det, _ := bloomlang.NewDetector(profiles, bloomlang.WithBackend(mine))
//
// The default backend is HAIL's direct table (§2) generalised from one
// language per packed n-gram to a language bitmask per packed n-gram:
// one uint16 plane of 2^20 entries (2 MiB at n=4) answers for up to 16
// languages, and each further 16 languages add a plane. Scoring an
// n-gram against every language is one table load instead of the
// parallel backend's k probes per language, and membership is exact,
// so there are no false positives to outvote. Long n-gram runs count
// through a histogram of mask bytes expanded once per call; short runs
// (segmentation chunks) walk each mask's set bits. The table grows as
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
// when simulated-hardware and software classifications must share
// filter state bit-for-bit (the XD1000 simulator and the paper
// reproductions borrow the parallel filters); "classic" exists as an
// ablation. SaveProfilesBlocked embeds the programmed blocked
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
// The mechanism reuses the match-counting inner loop unchanged and
// runs it exactly once per document: the n-gram stream is cut into
// Stride-sized chunks, each chunk's per-language counts accumulate
// through one pass of the backend's Kernel, and a sliding window of
// Window n-grams is the rolling sum of a Window/Stride-row ring — add the newest chunk,
// subtract the oldest. No n-gram is ever re-extracted or re-hashed
// for a second window, so on the blocked backend segmenting costs
// barely more than one Detect, at 0 allocs/op warm (AppendSpans with
// a reused destination; see BenchmarkDetectSpans).
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
// Every table and figure of the paper's evaluation can be regenerated;
// see the Run* experiment functions and cmd/experiments.
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
// profile sources (-registry, -profiles, -corpus, -synthetic, with
// -save), SIGHUP hot reload, and graceful drain on SIGINT/SIGTERM.
// examples/server walks the full serving surface, admin plane
// included, in one self-contained program.
package bloomlang
