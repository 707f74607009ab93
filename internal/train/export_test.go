package train

import "bloomlang/internal/ngram"

// PresetTotal sets lang's n-gram total in t as if total n-grams had
// been counted, so tests can reach ngram.MaxTotal without 4 GiB of
// text.
func PresetTotal(t *Trainer, lang string, total uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, err := t.accLocked(lang)
	if err != nil {
		return err
	}
	ngram.PresetTotal(a.counter, total)
	return nil
}
