package core

import "fmt"

// Kernel is a backend's membership-counting kernel: AddLanes scores
// every language for each packed n-gram of gs in one call — the
// software analogue of the hardware testing one n-gram against all
// language classifiers in the same clock (§3.2) — adding one to the
// byte lane of each language that holds it: byte l&7 of lanes[l>>3]
// for language l, two words per 16 languages. The caller keeps each
// lane plus len(gs) within 255. AddLanes may not allocate, write to
// gs, or keep its arguments past the call.
type Kernel interface {
	AddLanes(lanes []uint64, gs []uint32)
}

// Backend names the kernel a Detector counts with, as Detector.Backend
// and a server's statistics report it.
type Backend string

// BackendDirect is core's one built-in kernel and every detector's
// default: exact membership at every n (newExactKernel).
const BackendDirect Backend = "direct-lookup"

// String returns the backend's name.
func (b Backend) String() string { return string(b) }

// ParseBackend resolves the name of core's built-in backend.
//
// Deprecated: backend names, the paper's parallel-bloom among them,
// are resolved by the root bloomlang package. ParseBackend stays for
// the frozen perfbench module.
func ParseBackend(name string) (Backend, error) {
	if name != string(BackendDirect) {
		return "", fmt.Errorf("core: backend %q is not built in (have %s)", name, BackendDirect)
	}
	return BackendDirect, nil
}

// newExactKernel builds core's exact kernel over the profile set: the
// mask planes where the 2^(5n)-entry table fits, the compact probe
// tables above.
func newExactKernel(cfg Config, ps *ProfileSet) Kernel {
	if cfg.N > maxMaskN {
		return buildProbeKernel(ps)
	}
	return buildMaskKernel(cfg, ps)
}
