package core

import "fmt"

// Kernel is a backend's membership-counting kernel: AccumulateInto
// scores every language for each packed n-gram of gs in one call — the
// software analogue of the hardware testing one n-gram against all
// language classifiers in the same clock (§3.2) — and adds each
// language's match count into counts (len(Languages()), in profile
// order). It may not allocate, write to gs, or keep its arguments past
// the call. Stream is the one place bytes become n-grams: it feeds
// them to AccumulateInto in blocks, or runs the mask kernel's fused
// loop where that applies.
type Kernel interface {
	AccumulateInto(counts []int, gs []uint32)
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
func newExactKernel(cfg Config, ps *ProfileSet) (Kernel, error) {
	if cfg.N > maxMaskN {
		return buildProbeKernel(cfg, ps)
	}
	return buildMaskKernel(cfg, ps)
}
