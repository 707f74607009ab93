package ngram

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

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

// BuildProfile ranks the counter's accumulated n-grams and keeps the top
// t as the profile for the given language label.
func BuildProfile(language string, c *Counter, t int) *Profile {
	entries := c.Top(t)
	grams := make([]uint32, len(entries))
	for i, e := range entries {
		grams[i] = e.Gram
	}
	return &Profile{Language: language, N: c.v.n, Grams: grams}
}

// ProfileFromTexts builds one language's profile directly from its
// training documents, over a vocabulary of its own. A multi-language
// run shares one Vocabulary instead.
func ProfileFromTexts(language string, texts [][]byte, n, t int) (*Profile, error) {
	v, err := NewVocabulary(n)
	if err != nil {
		return nil, err
	}
	c := v.NewCounter()
	for _, text := range texts {
		c.AddText(text)
	}
	return BuildProfile(language, c, t), nil
}

// Size returns the number of n-grams in the profile (N in the paper's
// false-positive formula).
func (p *Profile) Size() int { return len(p.Grams) }

// Contains reports whether g is a member of the profile. It is O(n) and
// intended for tests and diagnostics; classification paths use Bloom
// filters or hash tables built from the profile.
func (p *Profile) Contains(g uint32) bool {
	for _, pg := range p.Grams {
		if pg == g {
			return true
		}
	}
	return false
}

// Set returns the profile as a membership set.
func (p *Profile) Set() map[uint32]bool {
	s := make(map[uint32]bool, len(p.Grams))
	for _, g := range p.Grams {
		s[g] = true
	}
	return s
}

// Overlap returns the number of n-grams present in both profiles — the
// quantity that drives cross-language confusion (§5.2: "consistently
// more Spanish documents were misclassified as Portuguese").
func (p *Profile) Overlap(q *Profile) int {
	set := p.Set()
	n := 0
	for _, g := range q.Grams {
		if set[g] {
			n++
		}
	}
	return n
}

// profileMagic identifies the on-disk profile format.
const profileMagic = "NGPF"

// profileVersion is the current serialization version.
const profileVersion = 1

// WriteTo serializes the profile in a compact binary format:
//
//	magic "NGPF" | version u8 | n u8 | lang len u16 | lang bytes |
//	count u32 | count * u32 grams (little endian)
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		written += int64(binary.Size(data))
		return nil
	}
	if _, err := bw.WriteString(profileMagic); err != nil {
		return written, err
	}
	written += int64(len(profileMagic))
	if len(p.Language) > 0xFFFF {
		return written, errors.New("ngram: language name too long")
	}
	if err := put(uint8(profileVersion)); err != nil {
		return written, err
	}
	if err := put(uint8(p.N)); err != nil {
		return written, err
	}
	if err := put(uint16(len(p.Language))); err != nil {
		return written, err
	}
	if _, err := bw.WriteString(p.Language); err != nil {
		return written, err
	}
	written += int64(len(p.Language))
	if err := put(uint32(len(p.Grams))); err != nil {
		return written, err
	}
	if err := put(p.Grams); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadProfile deserializes a profile written by WriteTo. It reads
// exactly one profile's bytes and no more, so profiles concatenated in
// one stream can be read back-to-back; callers reading many profiles
// from a file should pass a bufio.Reader.
func ReadProfile(r io.Reader) (*Profile, error) {
	br := r
	magic := make([]byte, len(profileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ngram: reading profile magic: %w", err)
	}
	if string(magic) != profileMagic {
		return nil, fmt.Errorf("ngram: bad profile magic %q", magic)
	}
	var version, n uint8
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != profileVersion {
		return nil, fmt.Errorf("ngram: unsupported profile version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 1 || int(n) > MaxN {
		return nil, fmt.Errorf("ngram: profile has invalid n=%d", n)
	}
	var langLen uint16
	if err := binary.Read(br, binary.LittleEndian, &langLen); err != nil {
		return nil, err
	}
	lang := make([]byte, langLen)
	if _, err := io.ReadFull(br, lang); err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	const maxProfileGrams = 1 << 26 // 64 Mi entries: far beyond any real profile
	if count > maxProfileGrams {
		return nil, fmt.Errorf("ngram: profile claims %d grams, refusing", count)
	}
	grams := make([]uint32, count)
	if err := binary.Read(br, binary.LittleEndian, grams); err != nil {
		return nil, err
	}
	mask := uint64(1)<<Bits(int(n)) - 1
	for i, g := range grams {
		if uint64(g) > mask {
			return nil, fmt.Errorf("ngram: gram %d (%#x) exceeds %d-bit packing", i, g, Bits(int(n)))
		}
	}
	return &Profile{Language: string(lang), N: int(n), Grams: grams}, nil
}

// SortProfilesByLanguage orders profiles by language label, the
// canonical order used when programming multi-language classifiers so
// counter indices are stable across software and simulated hardware.
func SortProfilesByLanguage(ps []*Profile) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Language < ps[j].Language })
}
