package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The on-disk layout mirrors how the paper's team prepared the corpus:
// "we parsed a subset of the corpus with only the text body saved to
// individual files" (§5). Each language gets a directory of numbered
// .txt files split into train/ and test/:
//
//	root/
//	  es/train/000000.txt ...
//	  es/test/000570.txt ...
//	  pt/...

// WriteDir writes the corpus under root, creating directories as
// needed.
func (c *Corpus) WriteDir(root string) error {
	write := func(split string, docs []Document) error {
		for _, d := range docs {
			dir := filepath.Join(root, d.Language, split)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			name := filepath.Join(dir, fmt.Sprintf("%06d.txt", d.ID))
			if err := os.WriteFile(name, d.Text, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	for _, lang := range c.Languages {
		if err := write("train", c.Train[lang]); err != nil {
			return err
		}
		if err := write("test", c.Test[lang]); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir loads a corpus previously written by WriteDir (or prepared by
// hand in the same layout). Unknown language directories are accepted:
// the reader does not require languages to be among the built-in specs.
func ReadDir(root string) (*Corpus, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("corpus: reading %s: %w", root, err)
	}
	c := &Corpus{
		Train: make(map[string][]Document),
		Test:  make(map[string][]Document),
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		lang := e.Name()
		train, err := readSplit(root, lang, "train")
		if err != nil {
			return nil, err
		}
		test, err := readSplit(root, lang, "test")
		if err != nil {
			return nil, err
		}
		if len(train) == 0 && len(test) == 0 {
			continue
		}
		c.Languages = append(c.Languages, lang)
		c.Train[lang] = train
		c.Test[lang] = test
	}
	sort.Strings(c.Languages)
	if len(c.Languages) == 0 {
		return nil, fmt.Errorf("corpus: no language directories under %s", root)
	}
	return c, nil
}

func readSplit(root, lang, split string) ([]Document, error) {
	dir := filepath.Join(root, lang, split)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: reading %s: %w", dir, err)
	}
	var docs []Document
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		// WriteDir names each file by its document's ID; a file named
		// otherwise is numbered by its position.
		id, err := strconv.Atoi(strings.TrimSuffix(e.Name(), ".txt"))
		if err != nil || id < 0 {
			id = len(docs)
		}
		docs = append(docs, Document{Language: lang, ID: id, Text: text})
	}
	return docs, nil
}
