package train

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"bloomlang/internal/core"
)

// maxNDJSONLine bounds one NDJSON document line (16 MiB).
const maxNDJSONLine = 16 << 20

// ndjsonDoc is one training line: {"lang": "es", "text": "..."}.
// "language" is accepted as an alias for "lang".
type ndjsonDoc struct {
	Lang     string `json:"lang"`
	Language string `json:"language"`
	Text     string `json:"text"`
}

// AddNDJSON ingests newline-delimited JSON documents of the form
// {"lang": "es", "text": "..."} (blank lines skipped), holding one
// line in memory at a time. It is the bulk-ingest mirror of the
// serving subsystem's /stream wire format, with a language label
// added.
func (t *Trainer) AddNDJSON(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxNDJSONLine)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var doc ndjsonDoc
		if err := json.Unmarshal(line, &doc); err != nil {
			return fmt.Errorf("train: ndjson line %d: %w", lineno, err)
		}
		lang := doc.Lang
		if lang == "" {
			lang = doc.Language
		}
		if lang == "" {
			return fmt.Errorf("train: ndjson line %d: missing \"lang\"", lineno)
		}
		if err := t.Add(lang, []byte(doc.Text)); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return fmt.Errorf("train: ndjson line %d exceeds %d bytes", lineno+1, maxNDJSONLine)
		}
		return fmt.Errorf("train: reading ndjson: %w", err)
	}
	return nil
}

// AddDir ingests the training split of a corpus directory tree in the
// cmd/corpusgen layout (root/<lang>/train/*.txt), streaming one file
// at a time — the corpus never materializes in memory. Language
// directories without a train split are skipped.
func (t *Trainer) AddDir(root string) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("train: reading %s: %w", root, err)
	}
	ingested := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		lang := e.Name()
		dir := filepath.Join(root, lang, "train")
		files, err := os.ReadDir(dir)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("train: reading %s: %w", dir, err)
		}
		names := make([]string, 0, len(files))
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".txt") {
				continue
			}
			names = append(names, f.Name())
		}
		sort.Strings(names)
		for _, name := range names {
			if err := t.addFile(lang, filepath.Join(dir, name)); err != nil {
				return err
			}
			ingested++
		}
	}
	if ingested == 0 {
		return fmt.Errorf("train: no training documents under %s", root)
	}
	return nil
}

func (t *Trainer) addFile(lang, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.AddReader(lang, f)
}

// NDJSON trains profiles from a newline-delimited JSON stream in one
// call; see (*Trainer).AddNDJSON for the line format.
func NDJSON(cfg core.Config, r io.Reader) (*core.ProfileSet, Stats, error) {
	return run(cfg, func(t *Trainer) error { return t.AddNDJSON(r) })
}

// Dir trains profiles from a corpus directory tree's training split in
// one call; see (*Trainer).AddDir for the layout.
func Dir(cfg core.Config, root string) (*core.ProfileSet, Stats, error) {
	return run(cfg, func(t *Trainer) error { return t.AddDir(root) })
}

// Texts trains profiles from in-memory training texts keyed by
// language code in one call, adding each language's documents through
// Add, the languages in increasing order. A language with no documents
// is refused, with an error naming it.
func Texts(cfg core.Config, texts map[string][][]byte) (*core.ProfileSet, Stats, error) {
	return run(cfg, func(t *Trainer) error {
		for _, lang := range slices.Sorted(maps.Keys(texts)) {
			if len(texts[lang]) == 0 {
				return fmt.Errorf("train: language %q has no training documents", lang)
			}
			for _, doc := range texts[lang] {
				if err := t.Add(lang, doc); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// run trains a new Trainer through add, aborting it if add fails.
func run(cfg core.Config, add func(*Trainer) error) (*core.ProfileSet, Stats, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := add(t); err != nil {
		t.Abort()
		return nil, Stats{}, err
	}
	return t.Finalize()
}
