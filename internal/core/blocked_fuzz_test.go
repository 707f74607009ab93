package core

import (
	"testing"
)

// FuzzBlockedNoFalseNegativesVsDirect is the differential guarantee
// behind the blocked backend's correctness: the direct table is exact
// membership, a Bloom filter may only ever err on the side of false
// positives, so on any document — including adversarial byte soup the
// fuzzer invents — every n-gram the direct backend accepts must be
// accepted by the blocked backend for every language, and the blocked
// per-language counts must dominate the exact counts.
func FuzzBlockedNoFalseNegativesVsDirect(f *testing.F) {
	direct, blocked, exact, set := directAndBlocked(f, trainMini(f, Config{TopT: 800}))
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
		gs := direct.ExtractGrams(nil, data)
		for _, g := range gs {
			for i := range direct.langs {
				if exact.Test(i, g) && !set.Test(i, g) {
					t.Fatalf("blocked false negative: lang %s gram %#x", direct.langs[i], g)
				}
			}
		}
		dr, br := direct.Classify(data), blocked.Classify(data)
		if dr.NGrams != br.NGrams {
			t.Fatalf("backends extracted different n-gram counts: %d vs %d", dr.NGrams, br.NGrams)
		}
		for i := range dr.Counts {
			if br.Counts[i] < dr.Counts[i] {
				t.Fatalf("blocked count %d below exact count %d for %s", br.Counts[i], dr.Counts[i], direct.langs[i])
			}
		}
	})
}
