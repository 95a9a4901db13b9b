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

// PREFIX_XOR(K, T) sets every dword of K to the XOR of itself and all the
// dwords below it — w[i] ^= w[i-1] ^ … along a round key — using T.
#define PREFIX_XOR(K, T) \
	MOVO  K, T; \
	PSLLO $4, T; \
	PXOR  T, K; \
	PSLLO $4, T; \
	PXOR  T, K; \
	PSLLO $4, T; \
	PXOR  T, K

// The schedule's SubWord runs on AESENCLAST, which pipelines, rather
// than AESKEYGENASSIST, which on a 2-vCPU Xeon took ~100 ns a key and no
// less four keys side by side: with one word broadcast to all four
// columns ShiftRows moves nothing, so AESENCLAST under the round key K
// is SubWord of each column XOR K.
// Throughout, X10 is the RotWord-and-broadcast shuffle, X11 zero, X12 the
// round constant in every dword, X8 and X9 scratch.
DATA rotword<>+0(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotword<>+8(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotword<>(SB), RODATA|NOPTR, $16

// EVEN(E, O, R, off): the next even round key of one schedule in E, from
// the previous one and SubWord(RotWord(top dword of the odd key in O)) ^
// rcon, stored at off(R).
#define EVEN(E, O, R, off) \
	MOVO       O, X8; \
	PSHUFB     X10, X8; \
	AESENCLAST X12, X8; \
	PREFIX_XOR(E, X9); \
	PXOR       X8, E; \
	MOVOU      E, off(R)

// ODD(E, O, R, off): the next odd round key in O, from the previous one
// and SubWord(top dword of the even key in E).
#define ODD(E, O, R, off) \
	PSHUFD     $0xff, E, X8; \
	AESENCLAST X11, X8; \
	PREFIX_XOR(O, X9); \
	PXOR       X8, O; \
	MOVOU      O, off(R)

// EVEN4 and ODD4 take the step on the four schedules at DI, R8, R9 and
// R10, whose key pairs are X0/X1, X2/X3, X4/X5 and X6/X7: four
// independent chains in flight instead of one.
#define EVEN4(off) \
	EVEN(X0, X1, DI, off); \
	EVEN(X2, X3, R8, off); \
	EVEN(X4, X5, R9, off); \
	EVEN(X6, X7, R10, off)

#define ODD4(off) \
	ODD(X0, X1, DI, off); \
	ODD(X2, X3, R8, off); \
	ODD(X4, X5, R9, off); \
	ODD(X6, X7, R10, off)

#define EVEN1(off) EVEN(X0, X1, DI, off)
#define ODD1(off) ODD(X0, X1, DI, off)

// SCHEDULE_AT(R, off) points R at the schedule keys[ks[off/4]]: DX is
// keys, BX ks, and an AES256 is 256 bytes.
#define SCHEDULE_AT(R, off) \
	MOVL off(BX), R; \
	SHLQ $8, R; \
	ADDQ DX, R

// SCHEDULE(EV, OD) runs the thirteen steps after the first two round
// keys, doubling the round constant after each even one.
#define SCHEDULE(EV, OD) \
	MOVL   $1, AX; \
	MOVQ   AX, X12; \
	PSHUFD $0, X12, X12; \
	EV(32); \
	OD(48); \
	PSLLL  $1, X12; \
	EV(64); \
	OD(80); \
	PSLLL  $1, X12; \
	EV(96); \
	OD(112); \
	PSLLL  $1, X12; \
	EV(128); \
	OD(144); \
	PSLLL  $1, X12; \
	EV(160); \
	OD(176); \
	PSLLL  $1, X12; \
	EV(192); \
	OD(208); \
	PSLLL  $1, X12; \
	EV(224)

// func expandKeysAESNI(keys *AES256, ks *uint32, raw *byte, n int)
TEXT ·expandKeysAESNI(SB), NOSPLIT, $0-32
	MOVQ  keys+0(FP), DX
	MOVQ  ks+8(FP), BX
	MOVQ  raw+16(FP), SI
	MOVQ  n+24(FP), CX
	MOVOU rotword<>(SB), X10
	PXOR  X11, X11

xloop4:
	CMPQ  CX, $4
	JB    xtail1
	SCHEDULE_AT(DI, 0)
	SCHEDULE_AT(R8, 4)
	SCHEDULE_AT(R9, 8)
	SCHEDULE_AT(R10, 12)
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 64(SI), X4
	MOVOU 80(SI), X5
	MOVOU 96(SI), X6
	MOVOU 112(SI), X7
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 0(R8)
	MOVOU X3, 16(R8)
	MOVOU X4, 0(R9)
	MOVOU X5, 16(R9)
	MOVOU X6, 0(R10)
	MOVOU X7, 16(R10)
	SCHEDULE(EVEN4, ODD4)
	ADDQ  $128, SI
	ADDQ  $16, BX
	SUBQ  $4, CX
	JMP   xloop4

xtail1:
	TESTQ CX, CX
	JZ    xdone
	SCHEDULE_AT(DI, 0)
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	SCHEDULE(EVEN1, ODD1)
	ADDQ  $32, SI
	ADDQ  $4, BX
	DECQ  CX
	JMP   xtail1

xdone:
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

// LANE(i, R) points R at the schedule of the block i/4 of a group: the
// AES256 at AX + ks[i/4]·256.
#define LANE(i, R) \
	MOVL i(BX), R; \
	SHLQ $8, R; \
	ADDQ AX, R

// KROUND8(op, off) applies the AES round op to the eight blocks in X0–X7,
// each under the round key at off of its own schedule (SI, DX, R8–R13);
// KROUND1 to X0 (SI).
#define KROUND8(op, off) \
	MOVOU off(SI), X8; \
	op    X8, X0; \
	MOVOU off(DX), X9; \
	op    X9, X1; \
	MOVOU off(R8), X10; \
	op    X10, X2; \
	MOVOU off(R9), X11; \
	op    X11, X3; \
	MOVOU off(R10), X12; \
	op    X12, X4; \
	MOVOU off(R11), X13; \
	op    X13, X5; \
	MOVOU off(R12), X14; \
	op    X14, X6; \
	MOVOU off(R13), X8; \
	op    X8, X7

#define KROUND1(op, off) \
	MOVOU off(SI), X8; \
	op    X8, X0

// func encryptBlocksKeyedAESNI(keys *AES256, ks *uint32, blocks *[16]byte, n int)
TEXT ·encryptBlocksKeyedAESNI(SB), NOSPLIT, $0-32
	MOVQ keys+0(FP), AX
	MOVQ ks+8(FP), BX
	MOVQ blocks+16(FP), DI
	MOVQ n+24(FP), CX

kloop8:
	CMPQ  CX, $8
	JB    ktail1
	LANE(0, SI)
	LANE(4, DX)
	LANE(8, R8)
	LANE(12, R9)
	LANE(16, R10)
	LANE(20, R11)
	LANE(24, R12)
	LANE(28, R13)
	MOVOU 0(DI), X0
	MOVOU 16(DI), X1
	MOVOU 32(DI), X2
	MOVOU 48(DI), X3
	MOVOU 64(DI), X4
	MOVOU 80(DI), X5
	MOVOU 96(DI), X6
	MOVOU 112(DI), X7
	ROUNDS(KROUND8)
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ  $128, DI
	ADDQ  $32, BX
	SUBQ  $8, CX
	JMP   kloop8

ktail1:
	TESTQ CX, CX
	JZ    kdone
	LANE(0, SI)
	MOVOU 0(DI), X0
	ROUNDS(KROUND1)
	MOVOU X0, 0(DI)
	ADDQ  $16, DI
	ADDQ  $4, BX
	DECQ  CX
	JMP   ktail1

kdone:
	RET
