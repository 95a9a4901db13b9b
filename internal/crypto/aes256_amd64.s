//go:build !purego

#include "textflag.h"

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// PREFIX_XOR(K) sets every dword of K to the XOR of itself and all the
// dwords below it — w[i] ^= w[i-1] ^ … along a round key — using T.
#define PREFIX_XOR(K, T) \
	MOVO  K, T; \
	PSLLO $4, T; \
	PXOR  T, K; \
	PSLLO $4, T; \
	PXOR  T, K; \
	PSLLO $4, T; \
	PXOR  T, K

// EVEN(rcon, off): the next even round key in X0, from the previous one
// and SubWord(RotWord(top dword of the odd key in X1)) ^ rcon.
#define EVEN(rcon, off) \
	AESKEYGENASSIST rcon, X1, X2; \
	PSHUFD          $0xff, X2, X2; \
	PREFIX_XOR(X0, X3); \
	PXOR            X2, X0; \
	MOVOU           X0, off(DI)

// ODD(off): the next odd round key in X1, from the previous one and
// SubWord(top dword of the even key in X0).
#define ODD(off) \
	AESKEYGENASSIST $0x00, X0, X2; \
	PSHUFD          $0xaa, X2, X2; \
	PREFIX_XOR(X1, X3); \
	PXOR            X2, X1; \
	MOVOU           X1, off(DI)

// func expandKey256(rk *[240]byte, key *Key)
TEXT ·expandKey256(SB), NOSPLIT, $0-16
	MOVQ  rk+0(FP), DI
	MOVQ  key+8(FP), SI
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	EVEN($0x01, 32)
	ODD(48)
	EVEN($0x02, 64)
	ODD(80)
	EVEN($0x04, 96)
	ODD(112)
	EVEN($0x08, 128)
	ODD(144)
	EVEN($0x10, 160)
	ODD(176)
	EVEN($0x20, 192)
	ODD(208)
	EVEN($0x40, 224)
	RET

// ROUND8(op, off) applies the AES round op under the round key at off(AX)
// to the eight blocks in X0–X7; ROUND4 to X0–X3, ROUND1 to X0.
#define ROUND8(op, off) \
	MOVOU off(AX), X8; \
	op    X8, X0; \
	op    X8, X1; \
	op    X8, X2; \
	op    X8, X3; \
	op    X8, X4; \
	op    X8, X5; \
	op    X8, X6; \
	op    X8, X7

#define ROUND4(op, off) \
	MOVOU off(AX), X8; \
	op    X8, X0; \
	op    X8, X1; \
	op    X8, X2; \
	op    X8, X3

#define ROUND1(op, off) \
	MOVOU off(AX), X8; \
	op    X8, X0

// ROUNDS(R) is AES-256 on R's blocks: whitening, 13 full rounds, the last.
#define ROUNDS(R) \
	R(PXOR, 0); \
	R(AESENC, 16); \
	R(AESENC, 32); \
	R(AESENC, 48); \
	R(AESENC, 64); \
	R(AESENC, 80); \
	R(AESENC, 96); \
	R(AESENC, 112); \
	R(AESENC, 128); \
	R(AESENC, 144); \
	R(AESENC, 160); \
	R(AESENC, 176); \
	R(AESENC, 192); \
	R(AESENC, 208); \
	R(AESENCLAST, 224)

// func encryptBlocksAESNI(rk *[240]byte, blocks *[16]byte, n int)
TEXT ·encryptBlocksAESNI(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), AX
	MOVQ blocks+8(FP), DI
	MOVQ n+16(FP), CX

loop8:
	CMPQ  CX, $8
	JB    tail4
	MOVOU 0(DI), X0
	MOVOU 16(DI), X1
	MOVOU 32(DI), X2
	MOVOU 48(DI), X3
	MOVOU 64(DI), X4
	MOVOU 80(DI), X5
	MOVOU 96(DI), X6
	MOVOU 112(DI), X7
	ROUNDS(ROUND8)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   loop8

tail4:
	CMPQ  CX, $4
	JB    tail1
	MOVOU 0(DI), X0
	MOVOU 16(DI), X1
	MOVOU 32(DI), X2
	MOVOU 48(DI), X3
	ROUNDS(ROUND4)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ  $64, DI
	SUBQ  $4, CX

tail1:
	TESTQ CX, CX
	JZ    done
	MOVOU 0(DI), X0
	ROUNDS(ROUND1)
	MOVOU X0, 0(DI)
	ADDQ  $16, DI
	DECQ  CX
	JMP   tail1

done:
	RET
