//go:build !amd64 || purego

package crypto

// aesni is false where there is no assembly kernel: every AES256 runs on
// crypto/aes. It is a variable, as on amd64, so that tests can pin either
// path; nothing else writes it.
var aesni = false

func expandKeysAESNI(*AES256, *uint32, *byte, int) {
	panic("crypto: aes256: no AES-NI kernel in this build")
}

func encryptBlocksAESNI(*[aes256RoundKeys * 16]byte, *[16]byte, int) {
	panic("crypto: aes256: no AES-NI kernel in this build")
}

func encryptBlocksKeyedAESNI(*AES256, *uint32, *[16]byte, int) {
	panic("crypto: aes256: no AES-NI kernel in this build")
}
