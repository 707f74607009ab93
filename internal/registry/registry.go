// Package registry is the versioned on-disk profile store of the
// profile lifecycle: train → version → activate → serve → rollback.
// The paper's deployment bakes profiles into on-chip Bloom filters
// offline (§2); this package is the software operations layer around
// that idea — every trained ProfileSet becomes an immutable,
// checksummed version, and exactly one version is active at a time.
// Serving processes load the active version and hot-swap to a newer
// one themselves (internal/serve's Reload).
//
// On disk a registry is a directory:
//
//	root/
//	  versions/
//	    v000001/profiles.bin   NGPS profile set (internal/core format)
//	    v000001/manifest.json  version, created_at, config, stats, checksum
//	    v000002/...
//	  CURRENT                  active version id
//	  HISTORY                  previous activations, oldest first
//
// Versions are immutable once created; CURRENT and HISTORY are updated
// by atomic rename, so a crash never leaves the registry pointing at a
// half-written state. A Registry value serializes its own operations;
// coordination between processes is the deployment's concern (run one
// writer — the trainer — per registry).
//
// The package also writes and reads unversioned profile files
// (SaveFile, LoadFile), so every profile file, manifest and pointer
// file reaches the disk through the same durable write.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/train"
)

const (
	versionsDir  = "versions"
	currentFile  = "CURRENT"
	historyFile  = "HISTORY"
	serialFile   = "SERIAL"
	profilesFile = "profiles.bin"
	manifestFile = "manifest.json"
)

// ErrNoActive reports a registry with no activated version.
var ErrNoActive = errors.New("registry: no active version")

// Manifest describes one immutable profile version.
type Manifest struct {
	// Version is the registry-assigned id, e.g. "v000003".
	Version string `json:"version"`
	// CreatedAt is the version's creation time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Config is the classifier configuration the profiles were trained
	// under; it travels with the version so serving rebuilds identical
	// filters.
	Config core.Config `json:"config"`
	// Languages is the trained language inventory, sorted.
	Languages []string `json:"languages"`
	// Stats summarizes the training corpus (documents, bytes, n-grams).
	Stats train.Stats `json:"stats"`
	// Checksum is the SHA-256 of profiles.bin, hex-encoded; Load
	// verifies it before deserializing.
	Checksum string `json:"checksum"`
	// ProfileBytes is the size of profiles.bin.
	ProfileBytes int64 `json:"profile_bytes"`
}

// Registry is a handle on one on-disk profile store.
type Registry struct {
	root string
	mu   sync.Mutex
}

// orphanTTL is how old a staging entry must be before Open treats it
// as crash debris. A live Create or Activate holds its temp entries
// for at most seconds; an hour-old one has no owner.
const orphanTTL = time.Hour

// Open opens (creating if necessary) the registry rooted at dir. It
// sweeps staging directories and temp files orphaned by a crashed
// writer; only entries older than orphanTTL are touched, so Open in a
// reader process never races a concurrent writer's in-flight staging.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, versionsDir), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	sweepOrphans(dir)
	sweepOrphans(filepath.Join(dir, versionsDir))
	return &Registry{root: dir}, nil
}

// sweepOrphans removes stale ".*tmp*" staging entries in dir; every
// temp file and staging directory this package creates matches that
// shape and is meaningless outside the operation that made it.
func sweepOrphans(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < orphanTTL {
			continue
		}
		os.RemoveAll(filepath.Join(dir, name))
	}
}

// Create writes ps as a new immutable version — profiles, checksum and
// manifest — and returns its manifest. The new version is not active
// until Activate is called.
func (r *Registry) Create(ps *core.ProfileSet, stats train.Stats) (*Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, err := r.nextVersionLocked()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.root, versionsDir, id)
	// Stage the whole version directory, then rename it into place, so
	// a half-written version is never visible under versions/.
	staging, err := os.MkdirTemp(filepath.Join(r.root, versionsDir), "."+id+".tmp")
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	defer os.RemoveAll(staging)

	m := &Manifest{
		Version:   id,
		CreatedAt: time.Now().UTC().Truncate(time.Second),
		Config:    ps.Config.WithDefaults(),
		Languages: ps.Languages(),
		Stats:     stats,
	}
	// Each file is new: O_EXCL refuses anything already in staging.
	create := func(name string, write func(io.Writer) (int64, error)) (string, int64, error) {
		f, err := os.OpenFile(filepath.Join(staging, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return "", 0, err
		}
		return writeSynced(f, write)
	}
	m.Checksum, m.ProfileBytes, err = create(profilesFile, ps.WriteTo)
	if err != nil {
		return nil, fmt.Errorf("registry: writing profiles: %w", err)
	}
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("registry: encoding manifest: %w", err)
	}
	if _, _, err := create(manifestFile, bytes.NewReader(append(mj, '\n')).WriteTo); err != nil {
		return nil, fmt.Errorf("registry: writing manifest: %w", err)
	}
	if err := os.Chmod(staging, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	// Both files are synced; sync the directory too before publishing
	// it, so a crash after the rename can never surface a truncated
	// profile file or manifest under versions/.
	if err := syncDir(staging); err != nil {
		return nil, err
	}
	if err := os.Rename(staging, dir); err != nil {
		return nil, fmt.Errorf("registry: publishing %s: %w", id, err)
	}
	return m, syncDir(filepath.Join(r.root, versionsDir))
}

// nextVersionLocked allocates the next sequential version id. The high
// water mark persists in SERIAL so ids are never reused after GC — a
// rollback history or an operator's notes must never silently point at
// a different profile set than they did when written.
func (r *Registry) nextVersionLocked() (string, error) {
	ids, err := r.versionIDsLocked()
	if err != nil {
		return "", err
	}
	max := 0
	for _, id := range ids {
		if n, ok := parseVersion(id); ok && n > max {
			max = n
		}
	}
	if data, err := os.ReadFile(filepath.Join(r.root, serialFile)); err == nil {
		if n, ok := parseVersion(strings.TrimSpace(string(data))); ok && n > max {
			max = n
		}
	} else if !os.IsNotExist(err) {
		return "", fmt.Errorf("registry: %w", err)
	}
	id := fmt.Sprintf("v%06d", max+1)
	if err := r.writeAtomicLocked(serialFile, id+"\n"); err != nil {
		return "", err
	}
	return id, nil
}

// parseVersion extracts the sequence number from a "vNNNNNN" id.
func parseVersion(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'v' {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// versionIDsLocked lists version ids in ascending order.
func (r *Registry) versionIDsLocked() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(r.root, versionsDir))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if _, ok := parseVersion(e.Name()); e.IsDir() && ok {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids) // zero-padded: lexicographic == numeric
	return ids, nil
}

// List returns every version's manifest in ascending version order.
func (r *Registry) List() ([]*Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids, err := r.versionIDsLocked()
	if err != nil {
		return nil, err
	}
	ms := make([]*Manifest, 0, len(ids))
	for _, id := range ids {
		m, err := r.manifestLocked(id)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func (r *Registry) manifestLocked(version string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(r.root, versionsDir, version, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("registry: unknown version %q", version)
		}
		return nil, fmt.Errorf("registry: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("registry: decoding %s manifest: %w", version, err)
	}
	return &m, nil
}

// ActiveVersion returns the active version id, or ErrNoActive.
func (r *Registry) ActiveVersion() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeLocked()
}

func (r *Registry) activeLocked() (string, error) {
	data, err := os.ReadFile(filepath.Join(r.root, currentFile))
	if os.IsNotExist(err) {
		return "", ErrNoActive
	}
	if err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	id := strings.TrimSpace(string(data))
	if id == "" {
		return "", ErrNoActive
	}
	return id, nil
}

// Activate makes version the active one, recording the previously
// active version in the rollback history. Activating the already
// active version is a no-op.
func (r *Registry) Activate(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.manifestLocked(version); err != nil {
		return err
	}
	prev, err := r.activeLocked()
	if err != nil && !errors.Is(err, ErrNoActive) {
		return err
	}
	if prev == version {
		return nil
	}
	if prev != "" {
		if err := r.appendHistoryLocked(prev); err != nil {
			return err
		}
	}
	return r.writeAtomicLocked(currentFile, version+"\n")
}

// Rollback reactivates the most recently superseded version, popping
// it from the history, and returns its id. It fails when there is
// nothing to roll back to.
func (r *Registry) Rollback() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hist, err := r.historyLocked()
	if err != nil {
		return "", err
	}
	// Skip history entries whose versions have been GC'd.
	for len(hist) > 0 {
		last := hist[len(hist)-1]
		hist = hist[:len(hist)-1]
		if _, err := r.manifestLocked(last); err != nil {
			continue
		}
		// CURRENT first, HISTORY trim second: if the trim is never
		// reached, a retried Rollback re-activates the same version (a
		// no-op repeat) instead of silently skipping past it.
		if err := r.writeAtomicLocked(currentFile, last+"\n"); err != nil {
			return "", err
		}
		return last, r.writeHistoryLocked(hist)
	}
	return "", errors.New("registry: no version to roll back to")
}

func (r *Registry) historyLocked() ([]string, error) {
	data, err := os.ReadFile(filepath.Join(r.root, historyFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var hist []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			hist = append(hist, line)
		}
	}
	return hist, nil
}

func (r *Registry) appendHistoryLocked(id string) error {
	hist, err := r.historyLocked()
	if err != nil {
		return err
	}
	return r.writeHistoryLocked(append(hist, id))
}

func (r *Registry) writeHistoryLocked(hist []string) error {
	var b strings.Builder
	for _, id := range hist {
		b.WriteString(id)
		b.WriteByte('\n')
	}
	return r.writeAtomicLocked(historyFile, b.String())
}

// writeAtomicLocked replaces root/name with content through
// replaceFile, so the pointer files survive power loss with either the
// old or the new content, never a truncated one.
func (r *Registry) writeAtomicLocked(name, content string) error {
	return replaceFile(filepath.Join(r.root, name), strings.NewReader(content).WriteTo)
}

// SaveFile writes ps to path as an unversioned profile file (langid
// train -out) through replaceFile, so a crash mid-write never leaves a
// truncated profile file for a daemon to trip over.
func SaveFile(path string, ps *core.ProfileSet) error {
	return replaceFile(path, ps.WriteTo)
}

// LoadFile reads an unversioned profile file written by SaveFile.
func LoadFile(path string) (*core.ProfileSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadProfileSet(f)
}

// replaceFile writes path whole: a temp file beside it (".*.tmp*", the
// shape Open sweeps in a registry) goes through writeSynced, is renamed
// over path, and the directory is synced. A crash leaves the old file
// or the new one, never a mix.
func replaceFile(path string, write func(io.Writer) (int64, error)) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, _, err := writeSynced(tmp, write); err != nil {
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return syncDir(dir)
}

// writeSynced writes f through write, sets mode 0644 whatever the umask
// (so a daemon under another account can read it), fsyncs and closes
// it, and returns the hex SHA-256 and size of the bytes written: files
// are hashed on their way out, never read back.
func writeSynced(f *os.File, write func(io.Writer) (int64, error)) (string, int64, error) {
	defer f.Close()
	h := sha256.New()
	n, err := write(io.MultiWriter(f, h))
	if err != nil {
		return "", 0, err
	}
	if err := f.Chmod(0o644); err != nil {
		return "", 0, err
	}
	if err := f.Sync(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("registry: syncing %s: %w", dir, err)
	}
	return nil
}

// GC removes old inactive versions, keeping the active version and the
// keep newest others. It returns the removed version ids; removed
// versions also disappear from the rollback history.
func (r *Registry) GC(keep int) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids, err := r.versionIDsLocked()
	if err != nil {
		return nil, err
	}
	active, err := r.activeLocked()
	if err != nil && !errors.Is(err, ErrNoActive) {
		return nil, err
	}
	var inactive []string
	for _, id := range ids {
		if id != active {
			inactive = append(inactive, id)
		}
	}
	if len(inactive) <= keep {
		return nil, nil
	}
	doomed := inactive[:len(inactive)-keep] // ascending order: oldest first
	removedSet := make(map[string]bool, len(doomed))
	for _, id := range doomed {
		if err := os.RemoveAll(filepath.Join(r.root, versionsDir, id)); err != nil {
			return nil, fmt.Errorf("registry: removing %s: %w", id, err)
		}
		removedSet[id] = true
	}
	hist, err := r.historyLocked()
	if err != nil {
		return nil, err
	}
	kept := hist[:0]
	for _, id := range hist {
		if !removedSet[id] {
			kept = append(kept, id)
		}
	}
	if len(kept) != len(hist) {
		if err := r.writeHistoryLocked(kept); err != nil {
			return nil, err
		}
	}
	return doomed, nil
}

// Load deserializes one version's profiles after verifying the
// manifest checksum, so a corrupted or tampered profile file is
// refused rather than served.
func (r *Registry) Load(version string) (*core.ProfileSet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.manifestLocked(version)
	if err != nil {
		return nil, err
	}
	return r.loadLocked(m)
}

// loadLocked parses the version's profile file as it reads it, once,
// hashing every byte on the way in (through an io.TeeReader) and then
// any the parser left unread, so the file is never held whole. The
// manifest checksum is checked before the parse's result counts: the
// bytes served are always the bytes verified, and a corrupt file is
// reported as a checksum mismatch ahead of any parse error.
func (r *Registry) loadLocked(m *Manifest) (*core.ProfileSet, error) {
	f, err := os.Open(filepath.Join(r.root, versionsDir, m.Version, profilesFile))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	ps, parseErr := core.ReadProfileSet(io.TeeReader(f, h))
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("registry: reading %s profiles: %w", m.Version, err)
	}
	if hexSum := hex.EncodeToString(h.Sum(nil)); hexSum != m.Checksum {
		return nil, fmt.Errorf("registry: %s profile checksum mismatch (have %s, manifest %s)", m.Version, hexSum, m.Checksum)
	}
	if parseErr != nil {
		return nil, fmt.Errorf("registry: loading %s: %w", m.Version, parseErr)
	}
	return ps, nil
}

// LoadActive loads the active version's profiles and manifest.
func (r *Registry) LoadActive() (*core.ProfileSet, *Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, err := r.activeLocked()
	if err != nil {
		return nil, nil, err
	}
	m, err := r.manifestLocked(id)
	if err != nil {
		return nil, nil, err
	}
	ps, err := r.loadLocked(m)
	if err != nil {
		return nil, nil, err
	}
	return ps, m, nil
}
