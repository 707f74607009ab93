package bloomlang

import (
	"bloomlang/internal/registry"
)

// Registry is the versioned on-disk profile store of the profile
// lifecycle: every trained ProfileSet becomes an immutable checksummed
// version, exactly one version is active at a time, and serving
// processes hot-swap between versions without dropping a request.
type Registry = registry.Registry

// ProfileManifest describes one immutable registry version: id,
// creation time, training configuration, corpus stats, and the
// profile checksum Load verifies.
type ProfileManifest = registry.Manifest

// ErrNoActiveProfile reports a registry with no activated version.
var ErrNoActiveProfile = registry.ErrNoActive

// OpenRegistry opens (creating if necessary) the profile registry
// rooted at dir.
func OpenRegistry(dir string) (*Registry, error) { return registry.Open(dir) }
