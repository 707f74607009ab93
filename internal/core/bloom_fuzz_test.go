package core

import (
	"testing"
)

// FuzzBloomNoFalseNegativesVsDirect is the differential guarantee
// behind the Bloom backends' correctness: the direct table is exact
// membership, a Bloom filter may only ever err on the side of false
// positives, so on any document — including adversarial byte soup the
// fuzzer invents — every n-gram the direct backend accepts must be
// accepted by the parallel Bloom filter of every language, and its
// per-language counts must dominate the exact counts.
func FuzzBloomNoFalseNegativesVsDirect(f *testing.F) {
	diff := newBloomDiff(f, trainMini(f, Config{TopT: 800}))
	corp := getMiniCorpus(f)
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		doc := corp.Test[lang][0].Text
		if len(doc) > 256 {
			doc = doc[:256]
		}
		f.Add(doc)
	}
	f.Add([]byte(""))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		diff.check(t, data)
	})
}
