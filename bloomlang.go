package bloomlang

import (
	"fmt"
	"sort"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
	"bloomlang/internal/train"
)

// Config carries the classifier parameters the paper studies (§4,
// §5.2): n-gram length N, profile size TopT, hash count K, bit-vector
// length MBits, plus the RNG seed and the XD1000 model's input
// subsampling. K, MBits and Seed configure the parallel-bloom backend;
// Subsample only the XD1000 model: a Detector counts every n-gram.
type Config = core.Config

// DefaultConfig returns the paper's conservative operating point:
// 4-grams, t=5000, k=4, m=16 Kbit.
func DefaultConfig() Config { return core.DefaultConfig() }

// ProfileSet is a trained set of per-language n-gram profiles.
type ProfileSet = core.ProfileSet

// Profile is one language's ranked n-gram profile.
type Profile = ngram.Profile

// Result is the per-language counter view of one document, as the
// §3.3 wide classifier (TrainWide) returns it; detection results are
// Matches.
type Result = bloom.Result

// Backend names the membership structure used for match counting, one
// of the two constants below; ParseBackend resolves them by name.
type Backend = core.Backend

// Membership backends: HAIL-style exact direct lookup (the default,
// core's one built-in kernel, exact at every n) and the paper's
// Parallel Bloom Filter (internal/bloom).
const (
	BackendDirect = core.BackendDirect
	BackendBloom  = bloom.Backend
)

// backends is the closed name table: each backend's canonical name,
// parse alias and kernel builder (nil for core's built-in kernel).
var backends = [...]struct {
	name  Backend
	alias string
	build func(*core.ProfileSet) (core.Kernel, error)
}{
	{BackendDirect, "direct", nil},
	{BackendBloom, "bloom", bloom.NewKernel},
}

// ParseBackend resolves a backend by canonical name or alias
// ("parallel-bloom"/"bloom", "direct-lookup"/"direct"). It is the
// inverse of Backend.String.
func ParseBackend(name string) (Backend, error) {
	names := make([]string, len(backends))
	for i, e := range backends {
		if name == string(e.name) || name == e.alias {
			return e.name, nil
		}
		names[i] = string(e.name)
	}
	return "", fmt.Errorf("bloomlang: unknown backend %q (have %v)", name, names)
}

// Backends lists every backend's canonical name, sorted.
func Backends() []string {
	names := make([]string, len(backends))
	for i, e := range backends {
		names[i] = string(e.name)
	}
	sort.Strings(names)
	return names
}

// Detector is the single entry point for language detection: ranked
// results, confidence scoring with explicit unknown outcomes, batch and
// stream paths, and an allocation-free single-document hot path.
type Detector = core.Detector

// Match is one classified document: winning language, raw match count,
// normalized confidence score and winner margin, or an explicit
// Unknown outcome.
type Match = core.Match

// DetectorOption configures a Detector at construction.
type DetectorOption = core.DetectorOption

// NewDetector builds a detector over trained profiles. Options:
// WithBackend, WithMinMargin, WithMinNGrams.
func NewDetector(ps *ProfileSet, opts ...DetectorOption) (*Detector, error) {
	return core.NewDetector(ps, opts...)
}

// WithBackend selects the membership backend (default BackendDirect,
// the exact kernel): BackendBloom hands the detector the paper's
// Parallel Bloom Filter kernel through core.WithKernel. A backend
// ParseBackend does not know makes NewDetector fail.
func WithBackend(b Backend) DetectorOption {
	for _, e := range backends {
		if e.name == b {
			return core.WithKernel(e.name, e.build)
		}
	}
	return core.WithKernel(b, func(*ProfileSet) (core.Kernel, error) {
		return nil, fmt.Errorf("bloomlang: unknown backend %q", b)
	})
}

// WithMinMargin makes Detect answer Unknown when the normalized winner
// margin falls below m (0 accepts everything, including exact ties).
func WithMinMargin(m float64) DetectorOption { return core.WithMinMargin(m) }

// WithMinNGrams makes Detect answer Unknown for documents with fewer
// than n testable n-grams.
func WithMinNGrams(n int) DetectorOption { return core.WithMinNGrams(n) }

// Span is one contiguous single-language region of a segmented
// document: the half-open byte range [Start, End), the language called
// for it, and Detect's confidence over the span's n-grams. Produced by
// (*Detector).DetectSpans and friends; spans always tile [0, len(doc))
// with no gaps or overlaps.
type Span = core.Span

// SegmentConfig carries the segmentation knobs (chunk stride, price of
// a language change, commit horizon); the zero value selects the
// defaults.
type SegmentConfig = core.SegmentConfig

// Stream counts one document incrementally: Write bytes in any
// chunking, then read the Match. Created by (*Detector).NewStream, or
// by (*Detector).NewSpanStream to also segment: read the spans every
// surviving path agrees on as they settle, Finish to close the
// document. (*Detector).BorrowStream and ReturnStream take and give
// back pooled ones.
type Stream = core.Stream

// Train builds per-language profiles from a corpus's training split.
func Train(cfg Config, corp *Corpus) (*ProfileSet, error) {
	return TrainFromTexts(cfg, corp.TrainTextsByLanguage())
}

// TrainFromTexts builds profiles from raw training texts keyed by
// language code, through the streaming trainer.
func TrainFromTexts(cfg Config, texts map[string][][]byte) (*ProfileSet, error) {
	ps, _, err := train.Texts(cfg, texts)
	return ps, err
}

// Corpus is a multilingual labelled document collection with train and
// test splits.
type Corpus = corpus.Corpus

// CorpusConfig describes a synthetic corpus to generate.
type CorpusConfig = corpus.Config

// Document is one labelled text.
type Document = corpus.Document

// DocumentTexts returns the documents' raw texts in order, the input
// of (*Detector).DetectBatch.
func DocumentTexts(docs []Document) [][]byte { return corpus.Texts(docs) }

// GenerateCorpus builds a synthetic JRC-Acquis-like corpus (see
// internal/corpus for the substitution rationale).
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) {
	return corpus.Generate(cfg)
}

// MixedCorpusConfig describes a deterministic mixed-language document
// set: seeded concatenations of per-language segments with known byte
// boundaries, the ground truth segmentation is evaluated against.
type MixedCorpusConfig = corpus.MixedConfig

// MixedDocument is one generated mixed-language document with its
// ground-truth segment tiling.
type MixedDocument = corpus.MixedDocument

// MixedSegment is one ground-truth region of a mixed document.
type MixedSegment = corpus.MixedSegment

// GenerateMixedCorpus builds the mixed-language document set described
// by cfg (see cmd/corpusgen -mixed for the on-disk form).
func GenerateMixedCorpus(cfg MixedCorpusConfig) ([]MixedDocument, error) {
	return corpus.GenerateMixed(cfg)
}

// PaperCorpusConfig returns the full-scale corpus shape of §5:
// 10 languages × 5,700 documents × 1,300 words, 10% training split.
// This generates roughly 450 MB of text.
func PaperCorpusConfig() CorpusConfig { return corpus.PaperConfig() }

// Languages returns the ten language codes of the paper's evaluation.
func Languages() []string { return corpus.Languages() }

// LanguageName returns the English name for a language code.
func LanguageName(code string) string { return core.LanguageName(code) }

// ReadCorpusDir loads a corpus from the on-disk layout written by
// (*Corpus).WriteDir or cmd/corpusgen.
func ReadCorpusDir(root string) (*Corpus, error) { return corpus.ReadDir(root) }
