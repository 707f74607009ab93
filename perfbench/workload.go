package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"bloomlang/internal/corpus"
)

// Workload names.
const (
	longDocs    = "long-docs"
	shortDocs   = "short-docs"
	mixedStream = "mixed-stream"
)

var workloadNames = []string{longDocs, shortDocs, mixedStream}

// sizes fixes how much input a workload generates. The defaults are
// the benchmark's; tests shrink them.
type sizes struct {
	trainDocs  int // training documents per language
	trainWords int // mean words per training document
	longDocs   int // long documents per language
	singles    int // short-docs snippets sent one per /detect
	batches    int // short-docs /batch requests of batchSize snippets
	mixedDocs  int // mixed-stream documents
}

var defaultSizes = sizes{
	trainDocs:  60,
	trainWords: 800,
	longDocs:   60,
	singles:    4096,
	batches:    64,
	mixedDocs:  2048,
}

const (
	batchSize      = 32 // snippets per short-docs /batch request
	linesPerStream = 8  // NDJSON documents per mixed-stream request
)

// request kinds.
const (
	kindDetect = iota
	kindBatch
	kindStream
)

// request is one generated HTTP request with everything needed to
// check its answer.
type request struct {
	kind  int
	path  string
	body  []byte
	docs  [][]byte // document bytes exactly as the server reads them
	ids   []string // ids sent on /batch and /stream
	truth []string // true language per document (detect and batch)
	mixed []mixedTruth
	bytes int // document bytes sent (text only, without JSON framing)
	units int // accuracy units: documents, or ground-truth bytes on mixed-stream
}

// mixedTruth is one mixed document's byte-exact ground truth. The
// server reads the UTF-8 encoding, so offs maps each Latin-1 byte to
// its offset in the UTF-8 text.
type mixedTruth struct {
	segs    []corpus.MixedSegment
	offs    []int
	utf8Len int
}

// workload is a generated training split plus a pool of requests the
// closed loop cycles through.
type workload struct {
	name  string
	langs []string
	train map[string][][]byte
	reqs  []request
	units int
}

// subSeed derives an independent generator seed from the run seed and
// a label.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// latin1ToUTF8 encodes ISO-8859-1 bytes as UTF-8, the way a client
// sends Latin-1 text inside JSON.
func latin1ToUTF8(b []byte) string {
	var sb strings.Builder
	sb.Grow(len(b) + len(b)/8)
	for _, c := range b {
		sb.WriteRune(rune(c))
	}
	return sb.String()
}

// generate builds the named workload from the seed.
func generate(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{name: name, langs: corpus.Languages(), train: map[string][][]byte{}}
	for _, lang := range w.langs {
		spec, err := corpus.ByCode(lang)
		if err != nil {
			return nil, err
		}
		gen := corpus.NewGenerator(spec, subSeed(seed, "train/"+lang))
		for i := 0; i < sz.trainDocs; i++ {
			w.train[lang] = append(w.train[lang], gen.Document(sz.trainWords))
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "order/"+name)))
	switch name {
	case longDocs:
		w.reqs = genLong(w.langs, seed, sz, rng)
	case shortDocs:
		w.reqs = genShort(w.langs, seed, sz, rng)
	case mixedStream:
		reqs, err := genMixed(w.langs, seed, sz)
		if err != nil {
			return nil, err
		}
		w.reqs = reqs
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	for _, r := range w.reqs {
		w.units += r.units
	}
	return w, nil
}

// genLong makes paper-sized documents: 5–8 KB of one language, cut at
// a word boundary, each sent raw as Latin-1 to /detect.
func genLong(langs []string, seed int64, sz sizes, rng *rand.Rand) []request {
	var reqs []request
	for _, lang := range langs {
		spec, _ := corpus.ByCode(lang)
		gen := corpus.NewGenerator(spec, subSeed(seed, "long/"+lang))
		for i := 0; i < sz.longDocs; i++ {
			target := 5000 + rng.Intn(3001)
			var doc []byte
			for len(doc) < target {
				doc = append(doc, gen.Document(80)...)
			}
			doc = doc[:target]
			if cut := bytes.LastIndexByte(doc, ' '); cut > 5000 {
				doc = doc[:cut]
			}
			reqs = append(reqs, detectRequest(doc, lang))
		}
	}
	return reqs
}

func detectRequest(doc []byte, lang string) request {
	return request{kind: kindDetect, path: "/detect", body: doc, docs: [][]byte{doc},
		truth: []string{lang}, bytes: len(doc), units: 1}
}

// snippet draws 5–50 words of one language.
func snippet(gen *corpus.Generator, rng *rand.Rand) []byte {
	words := 5 + rng.Intn(46)
	fields := bytes.Fields(gen.Document(words * 2))
	for len(fields) < words {
		fields = append(fields, bytes.Fields(gen.Document(words))...)
	}
	return bytes.Join(fields[:words], []byte{' '})
}

// genShort makes 5–50-word snippets: most are sent raw, one per
// /detect, and the rest go batchSize per /batch as UTF-8 JSON.
func genShort(langs []string, seed int64, sz sizes, rng *rand.Rand) []request {
	gens := make([]*corpus.Generator, len(langs))
	for i, lang := range langs {
		spec, _ := corpus.ByCode(lang)
		gens[i] = corpus.NewGenerator(spec, subSeed(seed, "short/"+lang))
	}
	var reqs []request
	for i := 0; i < sz.singles; i++ {
		l := i % len(langs)
		reqs = append(reqs, detectRequest(snippet(gens[l], rng), langs[l]))
	}
	type item struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	for b := 0; b < sz.batches; b++ {
		r := request{kind: kindBatch, path: "/batch"}
		items := make([]item, batchSize)
		for j := range items {
			l := rng.Intn(len(langs))
			text := latin1ToUTF8(snippet(gens[l], rng))
			items[j] = item{ID: fmt.Sprintf("b%d-%d", b, j), Text: text}
			r.docs = append(r.docs, []byte(text))
			r.ids = append(r.ids, items[j].ID)
			r.truth = append(r.truth, langs[l])
			r.bytes += len(text)
		}
		r.body, _ = json.Marshal(items)
		r.units = batchSize
		reqs = append(reqs, r)
	}
	return reqs
}

// genMixed makes corpus.GenerateMixed documents with byte-exact truth,
// sent linesPerStream at a time as UTF-8 NDJSON to /stream?spans=1.
func genMixed(langs []string, seed int64, sz sizes) ([]request, error) {
	docs, err := corpus.GenerateMixed(corpus.MixedConfig{Languages: langs, Docs: sz.mixedDocs, Seed: subSeed(seed, "mixed")})
	if err != nil {
		return nil, err
	}
	var reqs []request
	for start := 0; start < len(docs); start += linesPerStream {
		r := request{kind: kindStream, path: "/stream?spans=1"}
		var body bytes.Buffer
		for _, d := range docs[start:min(start+linesPerStream, len(docs))] {
			text := latin1ToUTF8(d.Text)
			id := fmt.Sprintf("m%d", d.ID)
			line, _ := json.Marshal(struct {
				ID   string `json:"id"`
				Text string `json:"text"`
			}{id, text})
			body.Write(line)
			body.WriteByte('\n')
			mt := mixedTruth{segs: d.Segments, offs: make([]int, len(d.Text)), utf8Len: len(text)}
			off := 0
			for i, c := range d.Text {
				mt.offs[i] = off
				off++
				if c >= 0x80 {
					off++
				}
			}
			r.docs = append(r.docs, []byte(text))
			r.ids = append(r.ids, id)
			r.mixed = append(r.mixed, mt)
			r.bytes += len(text)
			r.units += len(d.Text)
		}
		r.body = body.Bytes()
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// detection is the part of a serve Detection the checker reads.
// Pointers tell a missing field from a zero one.
type detection struct {
	ID       *string         `json:"id"`
	Language *string         `json:"language"`
	NGrams   *int            `json:"ngrams"`
	Score    *float64        `json:"score"`
	Unknown  bool            `json:"unknown"`
	Spans    []spanDetection `json:"spans"`
	Error    string          `json:"error"`
}

type spanDetection struct {
	Start    *int    `json:"start"`
	End      *int    `json:"end"`
	Language *string `json:"language"`
}

// checker verifies answers against the trained language set.
type checker struct {
	trained map[string]bool
}

func newChecker(langs []string) *checker {
	c := &checker{trained: map[string]bool{}}
	for _, l := range langs {
		c.trained[l] = true
	}
	return c
}

// language checks a reported language and returns it, "" for unknown.
func (c *checker) language(lang *string, unknown bool) (string, error) {
	switch {
	case lang == nil:
		return "", fmt.Errorf("missing language")
	case *lang == "" || *lang == "unknown":
		if *lang == "" && !unknown {
			return "", fmt.Errorf(`empty language without "unknown": true`)
		}
		return "", nil
	case !c.trained[*lang]:
		return "", fmt.Errorf("language %q was not trained", *lang)
	}
	return *lang, nil
}

func (c *checker) detection(d *detection, wantID string) (string, error) {
	if d.Error != "" {
		return "", fmt.Errorf("error in answer: %s", d.Error)
	}
	if d.NGrams == nil || d.Score == nil {
		return "", fmt.Errorf("answer lacks ngrams or score")
	}
	if *d.Score < 0 || *d.Score > 1 {
		return "", fmt.Errorf("score %v outside [0,1]", *d.Score)
	}
	if wantID != "" && (d.ID == nil || *d.ID != wantID) {
		return "", fmt.Errorf("answer id %v, want %q", d.ID, wantID)
	}
	return c.language(d.Language, d.Unknown)
}

// check verifies one answer and returns how many of the request's
// accuracy units it got right.
func (c *checker) check(r *request, status int, body []byte) (int, error) {
	if status < 200 || status > 299 {
		return 0, fmt.Errorf("%s answered %d: %.200s", r.path, status, body)
	}
	switch r.kind {
	case kindDetect:
		var d detection
		if err := json.Unmarshal(body, &d); err != nil {
			return 0, fmt.Errorf("/detect answer is not a JSON object: %v", err)
		}
		lang, err := c.detection(&d, "")
		if err != nil {
			return 0, err
		}
		return b2i(lang == r.truth[0]), nil
	case kindBatch:
		var ds []detection
		if err := json.Unmarshal(body, &ds); err != nil {
			return 0, fmt.Errorf("/batch answer is not a JSON array: %v", err)
		}
		if len(ds) != len(r.ids) {
			return 0, fmt.Errorf("/batch answered %d documents, sent %d", len(ds), len(r.ids))
		}
		good := 0
		for i := range ds {
			lang, err := c.detection(&ds[i], r.ids[i])
			if err != nil {
				return 0, fmt.Errorf("/batch document %d: %v", i, err)
			}
			good += b2i(lang == r.truth[i])
		}
		return good, nil
	case kindStream:
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
		if len(lines) != len(r.ids) {
			return 0, fmt.Errorf("/stream answered %d lines, sent %d", len(lines), len(r.ids))
		}
		good := 0
		for i, line := range lines {
			var d detection
			if err := json.Unmarshal(line, &d); err != nil {
				return 0, fmt.Errorf("/stream line %d is not a JSON object: %v", i, err)
			}
			if _, err := c.detection(&d, r.ids[i]); err != nil {
				return 0, fmt.Errorf("/stream line %d: %v", i, err)
			}
			n, err := c.spans(d.Spans, &r.mixed[i])
			if err != nil {
				return 0, fmt.Errorf("/stream line %d: %v", i, err)
			}
			good += n
		}
		return good, nil
	}
	return 0, fmt.Errorf("unknown request kind %d", r.kind)
}

// spans checks that spans tile [0, bytes) of the UTF-8 document and
// returns how many ground-truth bytes they label correctly.
func (c *checker) spans(spans []spanDetection, mt *mixedTruth) (int, error) {
	if len(spans) == 0 {
		return 0, fmt.Errorf("no spans")
	}
	langs := make([]string, len(spans))
	at := 0
	for i, s := range spans {
		if s.Start == nil || s.End == nil {
			return 0, fmt.Errorf("span %d lacks start or end", i)
		}
		if *s.Start != at || *s.End <= *s.Start {
			return 0, fmt.Errorf("span %d is [%d,%d), want it to start at %d and be non-empty", i, *s.Start, *s.End, at)
		}
		lang, err := c.language(s.Language, true)
		if err != nil {
			return 0, fmt.Errorf("span %d: %v", i, err)
		}
		langs[i] = lang
		at = *s.End
	}
	if at != mt.utf8Len {
		return 0, fmt.Errorf("spans end at %d, document has %d bytes", at, mt.utf8Len)
	}
	good, si := 0, 0
	for _, seg := range mt.segs {
		for b := seg.Start; b < seg.End; b++ {
			for mt.offs[b] >= *spans[si].End {
				si++
			}
			good += b2i(langs[si] == seg.Lang)
		}
	}
	return good, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
