package bloomlang

import (
	"bloomlang/internal/serve"
)

// ServeConfig carries the serving-layer knobs: detection thresholds,
// request/line/batch size limits, segmentation geometry and HTTP
// timeouts.
type ServeConfig = serve.Config

// Server is the HTTP serving subsystem over a trained detector; see
// (*Server).Handler for the endpoint surface.
type Server = serve.Server

// Detection is one classified document in a serving response.
type Detection = serve.Detection

// SpanDetection is one mixed-language span in a serving response.
type SpanDetection = serve.SpanDetection

// Segmentation is the /segment response: a document's span tiling.
type Segmentation = serve.Segmentation

// ServeStats is the /statsz counter snapshot.
type ServeStats = serve.Snapshot

// NewServer builds the serving subsystem from trained profiles.
func NewServer(ps *ProfileSet, cfg ServeConfig) (*Server, error) {
	return serve.New(ps, cfg)
}

// ReloadStatus reports one profile hot-swap outcome.
type ReloadStatus = serve.ReloadStatus

// ProfilesStatus is the /admin/profiles payload: the serving version,
// the registry's active version, and every version manifest.
type ProfilesStatus = serve.ProfilesStatus

// NewServerFromRegistry builds the serving subsystem from the
// registry's active profile version; the server reloads (hot-swaps)
// versions via (*Server).Reload and the /admin endpoints.
func NewServerFromRegistry(reg *Registry, cfg ServeConfig) (*Server, error) {
	return serve.NewFromRegistry(reg, cfg)
}
