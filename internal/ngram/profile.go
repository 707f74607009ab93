package ngram

// Profile is an n-gram profile of a language: the set of the t most
// frequently occurring n-grams in a representative sample of documents
// (paper §1). The profile is what gets programmed into a Bloom filter
// (or a HAIL lookup table); match counting against it drives
// classification.
type Profile struct {
	// Language is the label the profile was trained for, e.g. "es".
	Language string
	// N is the n-gram length.
	N int
	// Grams holds the profile members in descending training frequency.
	// The order matters for rank-based consumers (HAIL tags, diagnostics);
	// membership consumers treat it as a set.
	Grams []uint32
}

// Profile ranks c's accumulated n-grams and keeps the top t as the
// profile for the given language label. It allocates only the
// profile once r has ranked before.
func (r *Ranker) Profile(language string, c *Counter, t int) *Profile {
	entries := rank(&r.s, c.v.numbered(), c.counts, t)
	grams := make([]uint32, len(entries))
	for i, e := range entries {
		grams[i] = e.gram
	}
	return &Profile{Language: language, N: c.v.n, Grams: grams}
}

// Size returns the number of n-grams in the profile (N in the paper's
// false-positive formula).
func (p *Profile) Size() int { return len(p.Grams) }

// Set returns the profile as a membership set.
func (p *Profile) Set() map[uint32]bool {
	s := make(map[uint32]bool, len(p.Grams))
	for _, g := range p.Grams {
		s[g] = true
	}
	return s
}
