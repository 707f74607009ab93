package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
// Version 2 appended a programmed filter layout for a since-removed
// backend after the profiles. That layout was a pure function of the
// config and the profiles, so readers take the config and profiles of
// a version-2 file and ignore the rest. Legacy bare-NGPF streams remain
// readable too.

// profileSetMagic identifies the on-disk profile-set format.
const profileSetMagic = "NGPS"

// Profile-set serialization versions: WriteTo emits version 1
// (config+profiles, byte-identical to historical files); readers also
// accept version 2, whose trailing layout section they skip.
const (
	profileSetVersion       = 1
	profileSetVersionLayout = 2
)

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
	bw := bufio.NewWriter(w)
	var written int64
	if _, err := bw.WriteString(profileSetMagic); err != nil {
		return written, err
	}
	written += int64(len(profileSetMagic))
	put := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		written += int64(binary.Size(data))
		return nil
	}
	if err := put(uint8(profileSetVersion)); err != nil {
		return written, err
	}
	if err := put(uint32(len(cfgJSON))); err != nil {
		return written, err
	}
	if _, err := bw.Write(cfgJSON); err != nil {
		return written, err
	}
	written += int64(len(cfgJSON))
	if err := put(uint32(len(ps.Profiles))); err != nil {
		return written, err
	}
	if err := bw.Flush(); err != nil {
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

// ReadProfileSet deserializes a profile set written by WriteTo, or a
// version-2 file, whose layout section it skips. For compatibility
// with profile files produced before the set format existed (bare
// concatenated NGPF records, as older cmd/langid train wrote), a
// stream that starts with a profile record
// instead of the set header is read as a legacy set under
// DefaultConfig adjusted to the profiles' n. Malformed input comes
// back as a wrapped ErrCorruptProfiles naming the structure that
// failed.
func ReadProfileSet(r io.Reader) (*ProfileSet, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(profileSetMagic))
	if err != nil {
		return nil, corruptf("profile data ends before the %d-byte NGPS magic (%d bytes available): file is empty or truncated", len(profileSetMagic), len(magic))
	}
	if string(magic) != profileSetMagic {
		return readLegacyProfileSet(br)
	}
	if _, err := br.Discard(len(profileSetMagic)); err != nil {
		return nil, err
	}
	var version uint8
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, corruptf("profile set header truncated after the magic (%v)", err)
	}
	if version != profileSetVersion && version != profileSetVersionLayout {
		return nil, fmt.Errorf("core: unsupported profile set version %d (this build reads versions %d and %d; the file was written by a newer build or is corrupt)",
			version, profileSetVersion, profileSetVersionLayout)
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
		ps.Profiles = append(ps.Profiles, p)
	}
	return ps, nil
}

// readLegacyProfileSet reads bare concatenated NGPF records until EOF.
func readLegacyProfileSet(br *bufio.Reader) (*ProfileSet, error) {
	cfg := DefaultConfig()
	ps := &ProfileSet{Config: cfg}
	for {
		p, err := ngram.ReadProfile(br)
		if err != nil {
			// A clean end of file shows up as a wrapped io.EOF from the
			// magic read; anything else is a real error.
			if errors.Is(err, io.EOF) && len(ps.Profiles) > 0 {
				break
			}
			if len(ps.Profiles) == 0 {
				return nil, corruptf("data is neither an NGPS profile set nor a legacy NGPF profile stream (%v)", err)
			}
			return nil, corruptf("legacy profile stream damaged after %d profiles (%v)", len(ps.Profiles), err)
		}
		ps.Config.N = p.N
		ps.Profiles = append(ps.Profiles, p)
	}
	return ps, nil
}

// SaveFile writes the profile set to path atomically: a temp file in
// the same directory is synced to disk and renamed into place, so a
// crash mid-write never leaves a truncated profile file for a daemon
// to trip over. Making the rename itself durable is up to the caller,
// by syncing the directory.
func (ps *ProfileSet) SaveFile(path string) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := ps.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp opens 0600; match the 0644-modulo-umask a plain create
	// would give, so other users (e.g. the daemon's service account)
	// can read the saved profiles.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadProfileSetFile reads a profile set from a file written by
// SaveFile (or a legacy bare-profile file).
func LoadProfileSetFile(path string) (*ProfileSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadProfileSet(f)
}
