package corpus

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Config describes a corpus to generate. The defaults mirror the paper's
// evaluation setup (§5): 10 languages, an average of 5,700 documents per
// language with an average of 1,300 words per document, 10% of the
// corpus used as the training set.
type Config struct {
	// Languages is the set of language codes, each at most once; nil
	// means all ten of the paper's languages.
	Languages []string
	// DocsPerLanguage is the number of documents generated per language.
	DocsPerLanguage int
	// WordsPerDoc is the mean document length in words.
	WordsPerDoc int
	// TrainFraction is the fraction of documents put in the training
	// split (the paper used 10%).
	TrainFraction float64
	// Seed makes generation reproducible. Two corpora generated with
	// equal Config are byte-identical regardless of GOMAXPROCS.
	Seed int64
}

// PaperConfig returns the full-scale configuration matching the paper's
// corpus statistics. Note this generates roughly 450 MB of text.
func PaperConfig() Config {
	return Config{
		DocsPerLanguage: 5700,
		WordsPerDoc:     1300,
		TrainFraction:   0.10,
		Seed:            1,
	}
}

// TestConfig returns a miniature configuration for unit tests.
func TestConfig() Config {
	return Config{
		DocsPerLanguage: 40,
		WordsPerDoc:     120,
		TrainFraction:   0.25,
		Seed:            1,
	}
}

func (c *Config) applyDefaults() {
	if len(c.Languages) == 0 {
		c.Languages = Languages()
	}
	if c.DocsPerLanguage <= 0 {
		c.DocsPerLanguage = 5700
	}
	if c.WordsPerDoc <= 0 {
		c.WordsPerDoc = 1300
	}
	if c.TrainFraction <= 0 || c.TrainFraction >= 1 {
		c.TrainFraction = 0.10
	}
}

// Document is one generated text with its true language label.
type Document struct {
	// Language is the ground-truth language code.
	Language string
	// ID is the document's index within its language set.
	ID int
	// Text is the ISO-8859-1 document body.
	Text []byte
}

// Corpus is a generated multilingual document collection with a
// train/test split per language.
type Corpus struct {
	// Languages lists the language codes in sorted order.
	Languages []string
	// Train maps language code to its training documents.
	Train map[string][]Document
	// Test maps language code to its held-out test documents.
	Test map[string][]Document
}

// Generate builds the corpus described by cfg. Documents are generated
// on min(GOMAXPROCS, documents) goroutines, but each document's bytes
// depend only on (Seed, language, document index), so output is
// reproducible.
func Generate(cfg Config) (*Corpus, error) {
	cfg.applyDefaults()
	c := &Corpus{
		Train: make(map[string][]Document, len(cfg.Languages)),
		Test:  make(map[string][]Document, len(cfg.Languages)),
	}
	for _, code := range cfg.Languages {
		if _, err := ByCode(code); err != nil {
			return nil, err
		}
		if slices.Contains(c.Languages, code) {
			return nil, fmt.Errorf("corpus: language %q listed twice", code)
		}
		c.Languages = append(c.Languages, code)
	}
	slices.Sort(c.Languages)

	nTrain := int(float64(cfg.DocsPerLanguage) * cfg.TrainFraction)
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= cfg.DocsPerLanguage {
		return nil, fmt.Errorf("corpus: train fraction %.2f leaves no test documents", cfg.TrainFraction)
	}

	// Job j is document j%DocsPerLanguage of language j/DocsPerLanguage;
	// each goroutine claims the next job and writes only its slot.
	docs := make([]Document, len(c.Languages)*cfg.DocsPerLanguage)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(docs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(docs) {
					return
				}
				lang, id := c.Languages[j/cfg.DocsPerLanguage], j%cfg.DocsPerLanguage
				spec, _ := ByCode(lang)
				gen := NewGenerator(spec, docSeed(cfg.Seed, lang, id))
				docs[j] = Document{Language: lang, ID: id, Text: gen.Document(cfg.WordsPerDoc)}
			}
		}()
	}
	wg.Wait()

	for i, code := range c.Languages {
		lang := docs[i*cfg.DocsPerLanguage : (i+1)*cfg.DocsPerLanguage]
		c.Train[code] = lang[:nTrain]
		c.Test[code] = lang[nTrain:]
	}
	return c, nil
}

// docSeed derives a per-document seed from the corpus seed, language
// and index with an integer hash (splitmix64 finalizer) so that
// neighbouring documents get well-separated RNG streams.
func docSeed(seed int64, lang string, id int) int64 {
	x := uint64(seed)
	for _, b := range []byte(lang) {
		x = (x ^ uint64(b)) * 0x9E3779B97F4A7C15
	}
	x ^= uint64(id) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// TrainTexts returns the training documents of one language as raw
// byte slices, the shape profile training consumes.
func (c *Corpus) TrainTexts(lang string) [][]byte { return Texts(c.Train[lang]) }

// TrainTextsByLanguage returns every language's training texts keyed
// by language code, the input of train.Texts.
func (c *Corpus) TrainTextsByLanguage() map[string][][]byte {
	texts := make(map[string][][]byte, len(c.Languages))
	for _, lang := range c.Languages {
		texts[lang] = c.TrainTexts(lang)
	}
	return texts
}

// Texts returns the documents' raw texts in order, the shape the
// detector's batch paths take.
func Texts(docs []Document) [][]byte {
	texts := make([][]byte, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
	}
	return texts
}

// TestDocuments returns the test documents of one language, or every
// language's test documents interleaved when lang is "" (the "All" bar
// of Figure 4).
func (c *Corpus) TestDocuments(lang string) []Document {
	if lang != "" {
		return c.Test[lang]
	}
	var all []Document
	// Interleave round-robin so a streaming consumer sees mixed
	// languages, as the combined 52,581-document run in §5.4 did.
	maxLen := 0
	for _, code := range c.Languages {
		if n := len(c.Test[code]); n > maxLen {
			maxLen = n
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, code := range c.Languages {
			if i < len(c.Test[code]) {
				all = append(all, c.Test[code][i])
			}
		}
	}
	return all
}

// TestSize returns the total byte size of the test split for one
// language ("" for all).
func (c *Corpus) TestSize(lang string) int64 {
	var total int64
	for _, d := range c.TestDocuments(lang) {
		total += int64(len(d.Text))
	}
	return total
}

// TrainSize returns the total byte size of the training split across
// all languages.
func (c *Corpus) TrainSize() int64 {
	var total int64
	for _, docs := range c.Train {
		for _, d := range docs {
			total += int64(len(d.Text))
		}
	}
	return total
}
