package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"bloomlang/internal/ngram"
)

// ProfileSet serialization: a trained classifier's entire state is its
// configuration plus the per-language profiles, so persisting those two
// lets a server start from a profile file instead of re-training (the
// paper's preprocessing step 1 runs offline; §2). The format is a small
// header — magic, version, JSON-encoded Config — followed by the
// profiles in the established NGPF binary format from internal/ngram,
// so profile files remain readable one profile at a time.
//
//	magic "NGPS" | version u8 | config JSON len u32 | config JSON |
//	profile count u32 | count * NGPF profile records
//
// Version 1 is the only version; older files (version 2, bare NGPF
// streams) are refused. Languages are non-empty, unique and sorted, as
// every trainer writes them: detectors break ties by that order.
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
// NGPS version-1 binary format.
func (ps *ProfileSet) WriteTo(w io.Writer) (int64, error) {
	cfgJSON, err := json.Marshal(ps.Config)
	if err != nil {
		return 0, fmt.Errorf("core: encoding profile set config: %w", err)
	}
	head := make([]byte, 0, len(profileSetMagic)+1+4+len(cfgJSON)+4)
	head = append(head, profileSetMagic...)
	head = append(head, profileSetVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(cfgJSON)))
	head = append(head, cfgJSON...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(ps.Profiles)))
	n, err := w.Write(head)
	written := int64(n)
	if err != nil {
		return written, err
	}
	for _, p := range ps.Profiles {
		n, err := p.WriteTo(w)
		written += n
		if err != nil {
			return written, fmt.Errorf("core: writing profile %q: %w", p.Language, err)
		}
	}
	return written, nil
}

// ReadProfileSet deserializes a profile set written by WriteTo.
// Malformed input, a bare NGPF stream and profiles whose languages are
// not strictly increasing included, comes back as a wrapped
// ErrCorruptProfiles naming the structure that failed; another NGPS
// version is an unsupported-version error.
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
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(br, cfgJSON); err != nil {
		return nil, corruptf("profile set config truncated: wanted %d bytes (%v)", cfgLen, err)
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, corruptf("profile set config is not valid JSON (%v)", err)
	}
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: profile set config invalid: %w", err)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, corruptf("profile set truncated before the profile count (%v)", err)
	}
	if count > maxProfileCount {
		return nil, corruptf("profile set claims %d profiles (limit %d), refusing", count, maxProfileCount)
	}
	ps := &ProfileSet{Config: cfg, Profiles: make([]*ngram.Profile, 0, count)}
	for i := uint32(0); i < count; i++ {
		p, err := ngram.ReadProfile(br)
		if err != nil {
			return nil, corruptf("reading profile %d of %d: %v", i+1, count, err)
		}
		if p.N != cfg.N {
			return nil, fmt.Errorf("core: profile %q has n=%d, set config has n=%d", p.Language, p.N, cfg.N)
		}
		if p.Language == "" || i > 0 && p.Language <= ps.Profiles[i-1].Language {
			return nil, corruptf("profile %d of %d has language %q: language codes must be non-empty, unique and in increasing order", i+1, count, p.Language)
		}
		ps.Profiles = append(ps.Profiles, p)
	}
	return ps, nil
}
