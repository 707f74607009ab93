//go:build !amd64

package core

// useGroups is false off amd64: the mask plane runs the Go loop.
var useGroups = false

// countGroups is the AVX2 kernel on amd64; elsewhere it is never
// called.
func countGroups(plane []uint16, reg uint64, p []byte, out []uint64) uint64 {
	panic("core: countGroups without AVX2")
}
