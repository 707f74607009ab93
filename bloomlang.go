package bloomlang

import (
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ctrank"
	"bloomlang/internal/fpga"
	"bloomlang/internal/hail"
	"bloomlang/internal/ngram"
)

// Config carries the classifier parameters the paper studies (§4,
// §5.2): n-gram length N, profile size TopT, hash count K, bit-vector
// length MBits, plus the RNG seed and optional input subsampling.
type Config = core.Config

// DefaultConfig returns the paper's conservative operating point:
// 4-grams, t=5000, k=4, m=16 Kbit.
func DefaultConfig() Config { return core.DefaultConfig() }

// SpaceEfficientConfig returns the paper's most space-efficient
// operating point (§5.2): k=6 hash functions and one 4 Kbit embedded
// RAM per bit-vector, 24 Kbit per language, supporting thirty languages
// on the target device.
func SpaceEfficientConfig() Config {
	cfg := core.DefaultConfig()
	cfg.K = 6
	cfg.MBits = 4 * 1024
	return cfg
}

// ProfileSet is a trained set of per-language n-gram profiles.
type ProfileSet = core.ProfileSet

// Profile is one language's ranked n-gram profile.
type Profile = ngram.Profile

// Result is the raw per-language counter view of one document, as
// returned by (*Detector).Classifier().Classify; detection results are
// Matches.
type Result = core.Result

// Backend selects the membership structure used for match counting.
// The set is open: RegisterBackend adds new ones, ParseBackend resolves
// them by name.
type Backend = core.Backend

// Membership backends: HAIL-style exact direct lookup (the default),
// the paper's Parallel Bloom Filter, a classic single-vector Bloom
// filter for ablations, and the cache-line-blocked Bloom filter.
const (
	BackendDirect  = core.BackendDirect
	BackendBloom   = core.BackendBloom
	BackendClassic = core.BackendClassic
	BackendBlocked = core.BackendBlocked
)

// Kernel is a backend's membership-counting kernel. Count is the
// serving path: it counts the n-grams that a piece of raw document
// bytes completes, carrying the n-gram register across pieces in a
// Window. AccumulateInto counts pre-extracted packed n-grams and is the
// reference path. Both add each language's match count into one
// counter per language. Implement it to register a custom backend; a
// backend without a fused loop implements Count with CountGrams.
type Kernel = core.Kernel

// Window is the n-gram shift register a Kernel's Count carries from
// one piece of a document to the next.
type Window = core.Window

// CountGrams implements Kernel.Count for a kernel that scores packed
// n-grams: it extracts the bytes' n-grams through w a block at a time
// and calls k.AccumulateInto once per block.
func CountGrams(k Kernel, counts []int, w *Window, p []byte) int {
	return core.CountGrams(k, counts, w, p)
}

// BackendBuilder constructs a backend's Kernel over a profile set.
type BackendBuilder = core.BackendBuilder

// RegisterBackend adds a membership backend under a canonical name
// plus optional parse aliases, returning the Backend that selects it.
func RegisterBackend(name string, build BackendBuilder, aliases ...string) Backend {
	return core.RegisterBackend(name, build, aliases...)
}

// ParseBackend resolves a backend by canonical name or alias
// ("parallel-bloom"/"bloom", "direct-lookup"/"direct",
// "classic-bloom"/"classic", plus anything registered). It is the
// inverse of Backend.String.
func ParseBackend(name string) (Backend, error) { return core.ParseBackend(name) }

// Backends lists every registered backend's canonical name.
func Backends() []string { return core.Backends() }

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
// WithBackend, WithWorkers, WithMinMargin, WithMinNGrams.
func NewDetector(ps *ProfileSet, opts ...DetectorOption) (*Detector, error) {
	return core.NewDetector(ps, opts...)
}

// WithBackend selects the membership backend (default BackendDirect,
// the exact kernel).
func WithBackend(b Backend) DetectorOption { return core.WithBackend(b) }

// WithWorkers bounds DetectBatch fan-out; n <= 0 means GOMAXPROCS.
func WithWorkers(n int) DetectorOption { return core.WithWorkers(n) }

// WithMinMargin makes Detect answer Unknown when the normalized winner
// margin falls below m (0 accepts everything, including exact ties).
func WithMinMargin(m float64) DetectorOption { return core.WithMinMargin(m) }

// WithMinNGrams makes Detect answer Unknown for documents with fewer
// than n testable n-grams.
func WithMinNGrams(n int) DetectorOption { return core.WithMinNGrams(n) }

// Span is one contiguous single-language region of a segmented
// document: the half-open byte range [Start, End), the language called
// for it, and the mean windowed confidence behind the call. Produced
// by (*Detector).DetectSpans and friends; spans always tile
// [0, len(doc)) with no gaps or overlaps.
type Span = core.Span

// SegmentConfig carries the sliding-window segmentation knobs
// (window/stride in n-grams, boundary hysteresis, count smoothing);
// the zero value selects the defaults.
type SegmentConfig = core.SegmentConfig

// Stream counts one document incrementally: Write bytes in any
// chunking, then read the Match. Created by (*Detector).NewStream, or
// by (*Detector).NewSpanStream to also segment: read finalized spans
// as boundaries are confirmed, Finish to close the document.
type Stream = core.Stream

// Train builds per-language profiles from a corpus's training split.
func Train(cfg Config, corp *Corpus) (*ProfileSet, error) {
	return core.TrainFromTexts(cfg, corp.TrainTextsByLanguage())
}

// TrainFromTexts builds profiles from raw training texts keyed by
// language code.
func TrainFromTexts(cfg Config, texts map[string][][]byte) (*ProfileSet, error) {
	return core.TrainFromTexts(cfg, texts)
}

// FalsePositiveRate returns the paper's §3.1 Parallel Bloom Filter
// model f = (1 − e^(−N/m))^k.
func FalsePositiveRate(n int, mBits uint32, k int) float64 {
	return bloom.FalsePositiveRate(n, mBits, k)
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
func LanguageName(code string) string { return corpus.Name(code) }

// ReadCorpusDir loads a corpus from the on-disk layout written by
// (*Corpus).WriteDir or cmd/corpusgen.
func ReadCorpusDir(root string) (*Corpus, error) { return corpus.ReadDir(root) }

// CavnarTrenkle is the Mguesser-style software baseline (§5.5).
type CavnarTrenkle = ctrank.Classifier

// CavnarTrenkleConfig parameterizes the rank-order baseline.
type CavnarTrenkleConfig = ctrank.Config

// NewCavnarTrenkle trains the rank-order baseline on a corpus.
func NewCavnarTrenkle(cfg CavnarTrenkleConfig, corp *Corpus) (*CavnarTrenkle, error) {
	return ctrank.TrainCorpus(cfg, corp)
}

// HAIL is the competing FPGA design modelled functionally and
// architecturally (§2, §5.5).
type HAIL = hail.Classifier

// HAILConfig parameterizes the HAIL model.
type HAILConfig = hail.Config

// DefaultHAILConfig returns the published HAIL operating point
// (324 MB/sec on a Xilinx XCV2000E-8).
func DefaultHAILConfig() HAILConfig { return hail.DefaultConfig() }

// NewHAIL builds the HAIL model from trained profiles.
func NewHAIL(cfg HAILConfig, ps *ProfileSet) (*HAIL, error) {
	return hail.Build(cfg, ps.Profiles)
}

// FPGADevice describes an FPGA resource inventory.
type FPGADevice = fpga.Device

// EP2S180 returns the paper's target device.
func EP2S180() FPGADevice { return fpga.EP2S180() }

// ModuleConfig describes one classifier module for resource estimation.
type ModuleConfig = fpga.ModuleConfig

// ModuleReport is a modelled module synthesis result (Table 2).
type ModuleReport = fpga.ModuleReport

// SystemReport is a modelled device build (Table 3).
type SystemReport = fpga.SystemReport

// EstimateModule models one classifier module's synthesis (Table 2).
func EstimateModule(cfg ModuleConfig, dev FPGADevice) (ModuleReport, error) {
	return fpga.EstimateModule(cfg, dev)
}

// EstimateFPGASystem models a full-device build (Table 3).
func EstimateFPGASystem(cfg ModuleConfig, dev FPGADevice) (SystemReport, error) {
	return fpga.EstimateSystem(cfg, dev)
}

// MaxLanguages returns the number of languages supportable at 8
// n-grams/clock after infrastructure overhead (§5.2).
func MaxLanguages(k int, mBits uint32, dev FPGADevice) int {
	return fpga.MaxLanguages(k, mBits, 4, dev)
}
