package bloomlang

import (
	"io"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/registry"
)

// SaveProfiles writes a trained profile set (configuration included)
// to path durably (temp file, fsync, rename, directory sync), in the
// format LoadProfiles reads. A daemon restart then costs a file read
// instead of a training run.
func SaveProfiles(ps *ProfileSet, path string) error {
	return registry.SaveFile(path, ps)
}

// ErrCorruptProfiles tags ReadProfiles/LoadProfiles errors caused by
// damaged or truncated profile data, as opposed to I/O failures or
// version mismatches: errors.Is(err, ErrCorruptProfiles).
var ErrCorruptProfiles = core.ErrCorruptProfiles

// LoadProfiles reads a profile file written by SaveProfiles (or
// langid train -out), ready to hand to NewDetector or NewServer
// without re-training.
func LoadProfiles(path string) (*ProfileSet, error) {
	return registry.LoadFile(path)
}

// WriteProfiles serializes a profile set, configuration included, to a
// stream.
func WriteProfiles(w io.Writer, ps *ProfileSet) (int64, error) {
	return ps.WriteTo(w)
}

// ReadProfiles deserializes a profile set written by WriteProfiles.
// Any other data, older formats included, is refused; damaged data
// with ErrCorruptProfiles.
func ReadProfiles(r io.Reader) (*ProfileSet, error) {
	return core.ReadProfileSet(r)
}

// WideClassifier is the §3.3 Unicode extension: the same match-counting
// classifier over 16-bit characters (Greek, Cyrillic, and any other
// BMP script), with only the hash input width changed.
type WideClassifier = bloom.WideClassifier

// TrainWide builds a wide classifier from UTF-8 training texts keyed by
// language code. N is capped at 4 (a 4-gram of 16-bit characters fills
// the 64-bit hash input).
func TrainWide(cfg Config, texts map[string][]string) (*WideClassifier, error) {
	return bloom.TrainWide(cfg, texts)
}
