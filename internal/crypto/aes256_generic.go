//go:build !amd64 || purego

package crypto

// aesni is false where there is no assembly kernel: every AES256 runs on
// crypto/aes.
const aesni = false

func expandKey256(*[aes256RoundKeys * 16]byte, *Key) {
	panic("crypto: aes256: no AES-NI kernel in this build")
}

func encryptBlocksAESNI(*[aes256RoundKeys * 16]byte, *[16]byte, int) {
	panic("crypto: aes256: no AES-NI kernel in this build")
}
