//go:build !purego

package crypto

import "crypto/fips140"

// aesni reports whether AES256 runs on the assembly kernel: the CPU has
// the AES-NI instructions it needs, and the process is not in FIPS 140-3
// mode, which keeps every AES call inside Go's validated module.
var aesni = hasAESNI() && !fips140.Enabled()

// hasAESNI is CPUID leaf 1, ECX bit 25.
func hasAESNI() bool

// expandKey256 writes the AES-256 encryption schedule of key to rk.
//
//go:noescape
func expandKey256(rk *[aes256RoundKeys * 16]byte, key *Key)

// encryptBlocksAESNI encrypts the n consecutive blocks at blocks in place
// under the schedule rk.
//
//go:noescape
func encryptBlocksAESNI(rk *[aes256RoundKeys * 16]byte, blocks *[16]byte, n int)
