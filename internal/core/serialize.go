package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"unsafe"

	"bloomlang/internal/ngram"
)

// ProfileSet serialization: a trained classifier's entire state is its
// configuration plus the per-language profiles, so persisting those two
// lets a server start from a profile file instead of re-training (the
// paper's preprocessing step 1 runs offline; §2). This file owns the
// whole layout: a small header — magic, version, JSON-encoded Config —
// followed by one NGPF record per profile.
//
//	magic "NGPS" | version u8 | config JSON len u32 | config JSON |
//	profile count u32 | count * NGPF profile records
//
//	NGPF record: magic "NGPF" | version u8 | n u8 | lang len u16 |
//	lang bytes | gram count u32 | count * u32 grams
//
// Integers are little endian. Version 1 is the only version of either;
// older files (NGPS version 2, bare NGPF streams) are refused. A set
// read back must pass validate, as every set a detector serves must.
// Profile files on disk are internal/registry's.

// profileSetMagic identifies the on-disk profile-set format.
const profileSetMagic = "NGPS"

// profileSetVersion is the one NGPS version WriteTo writes and
// ReadProfileSet reads.
const profileSetVersion = 1

// maxConfigJSON bounds the config header a reader will accept.
const maxConfigJSON = 1 << 20

// maxProfileCount bounds the profile count a reader will accept; far
// beyond any real language inventory.
const maxProfileCount = 1 << 16

// profileMagic identifies one profile's NGPF record.
const profileMagic = "NGPF"

// profileVersion is the one NGPF record version.
const profileVersion = 1

// writeChunk bounds the buffer WriteTo encodes a set through.
const writeChunk = 8 << 10

// maxProfileGrams bounds the n-gram count readProfile accepts: 64 Mi
// entries, far beyond any real profile.
const maxProfileGrams = 1 << 26

// readStep is the most n-grams readProfile allocates ahead of the bytes
// that fill them: it grows Grams by at most this many, or by as many
// as it has read, whichever is more.
const readStep = 1 << 16

// littleEndian reports whether a []uint32 in memory is already the
// format's little-endian bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ErrCorruptProfiles tags every malformed-profile-data error from
// ReadProfileSet, so callers can distinguish a damaged or truncated
// file (errors.Is(err, ErrCorruptProfiles)) from I/O failures and
// version mismatches. The wrapped message names the structure that
// failed to parse and the likely cause.
var ErrCorruptProfiles = errors.New("corrupt profile data")

// corruptf builds a wrapped, actionable corrupt-input error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: "+format+": %w", append(args, ErrCorruptProfiles)...)
}

// WriteTo serializes the profile set, configuration included, in the
// NGPS version-1 format, encoding the header and every record through
// one buffer of writeChunk bytes. It is a plain encoder: it writes any
// set whose language codes fit their length field, valid or not.
func (ps *ProfileSet) WriteTo(w io.Writer) (int64, error) {
	cfgJSON, err := json.Marshal(ps.Config)
	if err != nil {
		return 0, fmt.Errorf("core: encoding profile set config: %w", err)
	}
	var written int64
	buf := make([]byte, 0, writeChunk)
	flush := func() error {
		n, err := w.Write(buf)
		written += int64(n)
		buf = buf[:0]
		return err
	}
	buf = append(buf, profileSetMagic...)
	buf = append(buf, profileSetVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cfgJSON)))
	buf = append(buf, cfgJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ps.Profiles)))
	for _, p := range ps.Profiles {
		if len(p.Language) > 0xFFFF {
			return written, fmt.Errorf("core: writing profile %q: language name too long", p.Language)
		}
		buf = append(buf, profileMagic...)
		buf = append(buf, profileVersion, uint8(p.N))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Language)))
		buf = append(buf, p.Language...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Grams)))
		for _, g := range p.Grams {
			if len(buf)+4 > writeChunk {
				if err := flush(); err != nil {
					return written, err
				}
			}
			buf = binary.LittleEndian.AppendUint32(buf, g)
		}
	}
	err = flush()
	return written, err
}

// ReadProfileSet deserializes a profile set written by WriteTo in one
// pass. Malformed input, a bare NGPF stream and a set validate refuses
// included, comes back as a wrapped ErrCorruptProfiles naming the
// structure that failed; another NGPS version is an unsupported-version
// error.
func ReadProfileSet(r io.Reader) (*ProfileSet, error) {
	br := bufio.NewReader(r)
	var magic [len(profileSetMagic)]byte
	if n, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, corruptf("profile data ends before the %d-byte NGPS magic (%d bytes available): file is empty or truncated", len(magic), n)
	}
	if string(magic[:]) != profileSetMagic {
		return nil, corruptf("data starts with %q, not the NGPS magic %q: not a profile set (bare NGPF profile streams are no longer read; rebuild the file with langid train)", magic[:], profileSetMagic)
	}
	var version uint8
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, corruptf("profile set header truncated after the magic (%v)", err)
	}
	if version != profileSetVersion {
		return nil, fmt.Errorf("core: unsupported profile set version %d (this build reads version %d only; rebuild the file with langid train)",
			version, profileSetVersion)
	}
	var cfgLen uint32
	if err := binary.Read(br, binary.LittleEndian, &cfgLen); err != nil {
		return nil, corruptf("profile set header truncated before the config length (%v)", err)
	}
	if cfgLen > maxConfigJSON {
		return nil, corruptf("profile set config claims %d bytes (limit %d), refusing", cfgLen, maxConfigJSON)
	}
	// The config grows as its bytes arrive, not to what the header claims.
	cfgJSON, err := io.ReadAll(io.LimitReader(br, int64(cfgLen)))
	if err == nil && len(cfgJSON) < int(cfgLen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, corruptf("profile set config truncated: wanted %d bytes (%v)", cfgLen, err)
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, corruptf("profile set config is not valid JSON (%v)", err)
	}
	cfg = cfg.WithDefaults()
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, corruptf("profile set truncated before the profile count (%v)", err)
	}
	if count > maxProfileCount {
		return nil, corruptf("profile set claims %d profiles (limit %d), refusing", count, maxProfileCount)
	}
	// The profile table grows as records arrive, not to the count.
	ps := &ProfileSet{Config: cfg}
	for i := range count {
		p, err := readProfile(br)
		if err != nil {
			return nil, corruptf("reading profile %d of %d: %v", i+1, count, err)
		}
		ps.Profiles = append(ps.Profiles, p)
	}
	if err := ps.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrCorruptProfiles)
	}
	return ps, nil
}

// readProfile reads one NGPF record and no more. The n-grams are read
// straight into Grams, which grows by readStep n-grams or by as many as
// have arrived, whichever is more, so a record that claims more n-grams
// than the stream holds costs about twice the stream, not the claim.
// It checks the record's framing only; validate checks its n and its
// n-grams against the set.
func readProfile(r io.Reader) (*ngram.Profile, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:len(profileMagic)]); err != nil {
		return nil, fmt.Errorf("reading profile magic: %w", err)
	}
	if string(hdr[:len(profileMagic)]) != profileMagic {
		return nil, fmt.Errorf("bad profile magic %q", hdr[:len(profileMagic)])
	}
	if err := readRest(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("profile header truncated: %w", err)
	}
	version, n, langLen := hdr[0], hdr[1], binary.LittleEndian.Uint16(hdr[2:4])
	if version != profileVersion {
		return nil, fmt.Errorf("unsupported profile version %d", version)
	}
	lang := make([]byte, langLen)
	if err := readRest(r, lang); err != nil {
		return nil, fmt.Errorf("profile language truncated: %w", err)
	}
	if err := readRest(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("profile gram count truncated: %w", err)
	}
	count := int(binary.LittleEndian.Uint32(hdr[:4]))
	if count > maxProfileGrams {
		return nil, fmt.Errorf("profile claims %d grams, refusing", count)
	}
	grams := make([]uint32, 0, min(count, readStep))
	for len(grams) < count {
		k := len(grams)
		grams = slices.Grow(grams, min(count-k, max(k, readStep)))
		grams = grams[:min(count, cap(grams))]
		part := grams[k:]
		if err := readRest(r, unsafe.Slice((*byte)(unsafe.Pointer(&part[0])), 4*len(part))); err != nil {
			return nil, fmt.Errorf("profile grams truncated after %d of %d: %w", k, count, err)
		}
		if !littleEndian {
			for i, g := range part {
				part[i] = bits.ReverseBytes32(g)
			}
		}
	}
	return &ngram.Profile{Language: string(lang), N: int(n), Grams: grams}, nil
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
