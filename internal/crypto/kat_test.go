package crypto

import (
	"encoding/hex"
	"testing"
)

// katInput is the input the known-answer vectors are taken on: n bytes
// 7i + n.
func katInput(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(7*i + n)
	}
	return b
}

// TestKnownAnswers pins SWP's four primitives — G's chunks 0..3, F, f's
// 32-byte k_i and E both ways — at fixed keys to the bytes the
// crypto/aes-based instantiation produced before AES256 carried them, on
// every path AES256 can take. A chunk width of 17 and E on 42 bytes take
// the multi-block paths (a chunk of two counter blocks, CBC-MAC chains of
// two and three blocks).
func TestKnownAnswers(t *testing.T) {
	chunks := map[int][]string{
		9:  {"e76a805b0b6cd55a3c", "1ceabdc7408fcbec80", "b671826b686f3922f7", "ed1ab66e94308f73e8"},
		17: {"e76a805b0b6cd55a3c9f11f2136cedbf1c", "b671826b686f3922f738c6b199c2e289ed", "b93b00c0894af85a8b9b210740cc13d10e", "666916bdfb696c0a323384fc5e8b0bb558"},
	}
	checksum := map[int]string{9: "b00926c24002ce8e128cdb74e7e882c2", 17: "adec4ed52670e762639b65d57cc2acc7"}
	wordKey := map[int]string{
		9:  "924acbc950bc1a1f6460332f6f8f822bbe49703a561d59d005e494e7ada740e5",
		17: "0c30e639483711c46ef7e33c23a01d1fc92a6319068efa34ba07652c7d7424c8",
	}
	pre := map[int][2]string{ // E(katInput(n)), E⁻¹(katInput(n))
		11: {"28be6e1f89afeca142163a", "8de264c2f37baed9d6627d"},
		42: {"6c59956361f2ab7e9ca0e49d22717720655db243bd3d90477d76abc48f9294b24e65a919116f6d16b794",
			"000a4a75e4bbf22bc0e9462708f4cfd225177d4ea724a0dd1655075f8559d805a3831ecf4f402d347385"},
	}
	for name, asm := range paths() {
		onPath(asm, func() {
			check := func(what string, got []byte, want string) {
				t.Helper()
				if hex.EncodeToString(got) != want {
					t.Errorf("%s: %s = %x, want %s", name, what, got, want)
				}
			}
			for w, want := range chunks {
				g := NewPRG(testKey(41))
				for i, c := range want {
					check("G's chunk", g.Block(uint64(i), w), c)
				}
			}
			for n, want := range checksum {
				f := NewBlockPRF(testKey(42), n)
				got := make([]byte, BlockPRFSize)
				f.SumInto(got, katInput(n))
				check("F", got, want)
			}
			for n, want := range wordKey {
				got := make([]byte, KeySize)
				NewWidePRF(testKey(43), n, KeySize).SumInto(got, katInput(n))
				check("f", got, want)
			}
			for n, want := range pre {
				p, err := NewPRP(testKey(44), n)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, n)
				p.EncryptInto(got, katInput(n))
				check("E", got, want[0])
				p.DecryptInto(got, katInput(n))
				check("E⁻¹", got, want[1])
			}
		})
	}
}
