//go:build !purego

package crypto

import "crypto/fips140"

// aesni reports whether AES256 runs on the assembly kernel: the CPU has
// the AES-NI instructions it needs, and the process is not in FIPS 140-3
// mode, which keeps every AES call inside Go's validated module. Tests
// pin it to false to run the crypto/aes path; nothing else writes it.
var aesni = hasAESNI() && !fips140.Enabled()

// hasAESNI is CPUID leaf 1, ECX bit 25.
func hasAESNI() bool

// expandKeysAESNI writes the AES-256 encryption schedule of key i of the
// n packed 32 bytes apiece at raw into keys[ks[i]], four side by side,
// then one at a time.
//
//go:noescape
func expandKeysAESNI(keys *AES256, ks *uint32, raw *byte, n int)

// encryptBlocksAESNI encrypts the n consecutive blocks at blocks in place
// under the schedule rk.
//
//go:noescape
func encryptBlocksAESNI(rk *[aes256RoundKeys * 16]byte, blocks *[16]byte, n int)

// encryptBlocksKeyedAESNI encrypts the n consecutive blocks at blocks in
// place, block i under the schedule of keys[ks[i]].
//
//go:noescape
func encryptBlocksKeyedAESNI(keys *AES256, ks *uint32, blocks *[16]byte, n int)
