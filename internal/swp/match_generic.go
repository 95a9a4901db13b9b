//go:build !amd64 || purego

package swp

// fusedKernel is false where there is no assembly: every pass is the
// portable one.
const fusedKernel = false

func matchShortAESNI(*[240]byte, *byte, *int, int, *fusedConsts, int) uint32 {
	panic("swp: no fused kernel in this build")
}
