//go:build !purego

package swp

// fusedKernel reports whether the CPU has what the fused kernel runs on
// besides AES-NI, which the AES256 it reads the schedule of checks:
// SSSE3's PSHUFB and SSE4.1's PINSRQ.
var fusedKernel = hasShuffles()

// hasShuffles is CPUID leaf 1, ECX bits 9 (SSSE3) and 19 (SSE4.1).
func hasShuffles() bool

// matchShortAESNI is the short-shape pass over groups of eight words,
// word b's first eight bytes at body[offs[b]:] and its last eight at
// body[offs[b]+zoff:]: it returns the mask of those that match the
// trapdoor whose F schedule is rk and whose X c describes, bit b for
// word b.
//
//go:noescape
func matchShortAESNI(rk *[240]byte, body *byte, offs *int, groups int, c *fusedConsts, zoff int) uint32
