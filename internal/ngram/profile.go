package ngram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
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

// Profile ranks c's accumulated n-grams and keeps the top t as the
// profile for the given language label. It allocates only the
// profile once r has ranked before.
func (r *Ranker) Profile(language string, c *Counter, t int) *Profile {
	entries := rank(&r.s, c.v.numbered(), c.counts, t)
	grams := make([]uint32, len(entries))
	for i, e := range entries {
		grams[i] = e.Gram
	}
	return &Profile{Language: language, N: c.v.n, Grams: grams}
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

// writeChunk bounds the buffer WriteTo encodes a profile through.
const writeChunk = 8 << 10

// maxProfileGrams bounds the n-gram count ReadProfile accepts: 64 Mi
// entries, far beyond any real profile.
const maxProfileGrams = 1 << 26

// readStep is the most n-grams ReadProfile allocates ahead of the bytes
// that fill them: it grows Grams by at most this many, or by as many
// as it has read, whichever is more.
const readStep = 1 << 16

// littleEndian reports whether a []uint32 in memory is already the
// profile format's little-endian bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteTo serializes the profile in a compact binary format:
//
//	magic "NGPF" | version u8 | n u8 | lang len u16 | lang bytes |
//	count u32 | count * u32 grams (little endian)
//
// It encodes the whole record through one buffer of at most
// writeChunk bytes.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	if len(p.Language) > 0xFFFF {
		return 0, errors.New("ngram: language name too long")
	}
	head := len(profileMagic) + 4 + len(p.Language) + 4
	buf := make([]byte, 0, min(head+4*len(p.Grams), max(head, writeChunk)))
	buf = append(buf, profileMagic...)
	buf = append(buf, profileVersion, uint8(p.N))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Language)))
	buf = append(buf, p.Language...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Grams)))
	var written int64
	for _, g := range p.Grams {
		if cap(buf)-len(buf) < 4 {
			n, err := w.Write(buf)
			written += int64(n)
			if err != nil {
				return written, err
			}
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, g)
	}
	n, err := w.Write(buf)
	return written + int64(n), err
}

// ReadProfile deserializes a profile written by WriteTo. It reads
// exactly one profile's bytes and no more, so profiles concatenated in
// one stream can be read back-to-back; callers reading many profiles
// from a file should pass a bufio.Reader. The n-grams are read straight
// into Grams, which grows by readStep n-grams or by as many as have
// arrived, whichever is more, so a header that claims more n-grams than
// the stream holds costs about twice the stream, not the claim.
func ReadProfile(r io.Reader) (*Profile, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:len(profileMagic)]); err != nil {
		return nil, fmt.Errorf("ngram: reading profile magic: %w", err)
	}
	if string(hdr[:len(profileMagic)]) != profileMagic {
		return nil, fmt.Errorf("ngram: bad profile magic %q", hdr[:len(profileMagic)])
	}
	if err := readRest(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("ngram: profile header truncated: %w", err)
	}
	version, n, langLen := hdr[0], hdr[1], binary.LittleEndian.Uint16(hdr[2:4])
	if version != profileVersion {
		return nil, fmt.Errorf("ngram: unsupported profile version %d", version)
	}
	if n < 1 || int(n) > MaxN {
		return nil, fmt.Errorf("ngram: profile has invalid n=%d", n)
	}
	lang := make([]byte, langLen)
	if err := readRest(r, lang); err != nil {
		return nil, fmt.Errorf("ngram: profile language truncated: %w", err)
	}
	if err := readRest(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("ngram: profile gram count truncated: %w", err)
	}
	count := int(binary.LittleEndian.Uint32(hdr[:4]))
	if count > maxProfileGrams {
		return nil, fmt.Errorf("ngram: profile claims %d grams, refusing", count)
	}
	mask := uint64(1)<<Bits(int(n)) - 1
	grams := make([]uint32, 0, min(count, readStep))
	for len(grams) < count {
		k := len(grams)
		grams = slices.Grow(grams, min(count-k, max(k, readStep)))
		grams = grams[:min(count, cap(grams))]
		part := grams[k:]
		if err := readRest(r, unsafe.Slice((*byte)(unsafe.Pointer(&part[0])), 4*len(part))); err != nil {
			return nil, fmt.Errorf("ngram: profile grams truncated after %d of %d: %w", k, count, err)
		}
		for i, g := range part {
			if !littleEndian {
				g = bits.ReverseBytes32(g)
				part[i] = g
			}
			if uint64(g) > mask {
				return nil, fmt.Errorf("ngram: gram %d (%#x) exceeds %d-bit packing", k+i, g, Bits(int(n)))
			}
		}
	}
	return &Profile{Language: string(lang), N: int(n), Grams: grams}, nil
}

// readRest fills p from r. The bytes are part of a record whose start
// was read, so an end of stream before p is full is io.ErrUnexpectedEOF.
func readRest(r io.Reader, p []byte) error {
	_, err := io.ReadFull(r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// SortProfilesByLanguage orders profiles by language label, the
// canonical order used when programming multi-language classifiers so
// counter indices are stable across software and simulated hardware.
func SortProfilesByLanguage(ps []*Profile) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Language < ps[j].Language })
}
