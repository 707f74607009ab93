package core

import "bloomlang/internal/alphabet"

// countGroups is the mask plane's AVX2 kernel (groups_amd64.s). It
// shifts p through reg, whose earlier characters are in place, and sets
// out[2g] and out[2g+1] to the lo and hi lane words of group g: the 16
// n-grams that bytes 16g to 16g+15 of p complete, counted against the
// plane's up to 16 languages, the two words countLanes returns for the
// same bytes. It returns the register countLanes would. It counts
// min(len(p)/16, len(out)/2, maxGroups) groups, reads no byte of p past
// them, and takes the n-gram length from len(plane), 2^(5n) for n from
// 1 to 5. Per 32 bytes it translates with VPSHUFB (xlat), forms each
// n-gram's plane index with VPSHUFB, VPMADDUBSW and VPMADDWD, loads
// the masks with two VPGATHERDD per group, and counts a group in eight
// rounds of a broadcast mask pair, VPCMPEQB and VPSUBB.
//
//go:noescape
func countGroups(plane []uint16, reg uint64, p []byte, out []uint64) uint64

// cpuid and xgetbv are the CPU feature queries (groups_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// xlat holds the translation step's VPSHUFB tables, each 16 bytes
// repeated for both 128-bit lanes. The step takes the bytes 0x40–0x7F
// and 0xC0–0xFF, where ISO-8859-1 keeps its letters, as two halves of
// four 16-byte rows: a byte's code is the XOR of its own row's table
// and every earlier row's of its half (xlat[h*4+k] is row k of half h
// XOR row k-1). Table k is indexed with the byte (bit 7 flipped for
// the high half) less 0x40+16k under signed saturation, which leaves
// bit 7 set, and so VPSHUFB's zero, for bytes below row k or outside
// the half.
var xlat [8][32]byte

// useGroups reports that whole chunks count through countGroups:
// the CPU has AVX2 with the OS saving its registers, and the alphabet
// fits the kernel (translateFits). It is set once, here; tests switch
// it off to run the Go loop.
var useGroups = haveAVX2() && translateFits()

// haveAVX2 reports AVX2 from CPUID, and YMM state enabled by the OS
// from XGETBV.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// translateFits fills xlat from alphabet.Translate and reports whether
// the kernel computes the same codes: every byte outside 0x40–0x7F and
// 0xC0–0xFF is Space, and every code is at most 30, which keeps each
// four-byte gather inside the plane (no index reaches its last entry).
func translateFits() bool {
	for b := range 256 {
		c := alphabet.Translate(byte(b))
		if c > 30 || c != alphabet.Space && b&0x40 == 0 {
			return false
		}
	}
	for half := range 2 {
		for k := range 4 {
			for lo := range 16 {
				row := byte(half<<7 | 0x40 | k<<4 | lo)
				v := byte(alphabet.Translate(row))
				if k > 0 {
					v ^= byte(alphabet.Translate(row - 16))
				}
				xlat[half*4+k][lo], xlat[half*4+k][16+lo] = v, v
			}
		}
	}
	return true
}
