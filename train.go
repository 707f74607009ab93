package bloomlang

import (
	"io"

	"bloomlang/internal/train"
)

// Trainer is the streaming profile trainer: documents are ingested
// incrementally (Add, AddReader, AddNDJSON, AddDir) and counted in the
// caller over one n-gram vocabulary shared by all languages, with
// dense counts per language, so training never materializes a corpus
// in memory and memory follows the n-grams seen, not the n-gram key
// space. Finalize ranks the languages in parallel into a ProfileSet
// identical to Train on the same documents; Abort ends a trainer on
// error paths.
type Trainer = train.Trainer

// TrainStats summarizes a finalized training run (documents, bytes and
// n-grams per language); the profile registry records it in each
// version's manifest.
type TrainStats = train.Stats

// TrainLangStats is one language's slice of TrainStats.
type TrainLangStats = train.LangStats

// NewTrainer builds a streaming trainer for the given configuration.
func NewTrainer(cfg Config) (*Trainer, error) { return train.New(cfg) }

// TrainNDJSON trains profiles from a newline-delimited JSON stream of
// {"lang": "es", "text": "..."} documents, one line in memory at a
// time.
func TrainNDJSON(cfg Config, r io.Reader) (*ProfileSet, TrainStats, error) {
	return train.NDJSON(cfg, r)
}

// TrainDir trains profiles from a corpus directory tree's training
// split (the cmd/corpusgen layout), streaming one file at a time.
func TrainDir(cfg Config, root string) (*ProfileSet, TrainStats, error) {
	return train.Dir(cfg, root)
}
