//go:build !purego

#include "textflag.h"

// func hasShuffles() bool
TEXT ·hasShuffles(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x80200, CX
	CMPL CX, $0x80200
	SETEQ ret+0(FP)
	RET

// LOAD(off, X) puts into X the first stream block ⊕ X of the word whose
// offset is at off(DI): its first and last eight bytes side by side, X's
// loaded the same way XORed in, and the stream bytes shuffled into place
// with zeros from n−m on. SI is the body, R14 the body plus zoff.
#define LOAD(off, X) \
	MOVQ   off(DI), R9; \
	MOVQ   (SI)(R9*1), X; \
	PINSRQ $1, (R14)(R9*1), X; \
	PXOR   X9, X; \
	PSHUFB X10, X

// CHECK(off, X) shifts into R13 a 1 when F's output in X, masked to m
// bytes, equals the checksum part of C ⊕ X of the word at off(DI),
// reloaded from its last eight bytes, and a 0 otherwise. Equality
// becomes the carry of a compare with 1, with no branch on any byte.
#define CHECK(off, X) \
	MOVQ off(DI), R9; \
	MOVQ (R14)(R9*1), R9; \
	XORQ R11, R9; \
	SHRQ CX, R9; \
	MOVQ X, R8; \
	ANDQ R10, R8; \
	XORQ R9, R8; \
	CMPQ R8, $1; \
	ADCQ R13, R13

// ROUND applies the AES round op under the round key at off(AX) to the
// eight blocks in X0–X7.
#define ROUND(op, off) \
	MOVOU off(AX), X8; \
	op    X8, X0; \
	op    X8, X1; \
	op    X8, X2; \
	op    X8, X3; \
	op    X8, X4; \
	op    X8, X5; \
	op    X8, X6; \
	op    X8, X7

// func matchShortAESNI(rk *[240]byte, body *byte, offs *int, groups int, c *fusedConsts, zoff int) uint32
//
// The groups run last to first and each group's words from the last, so
// that the bits shifted into the mask leave word b at bit b.
TEXT ·matchShortAESNI(SB), NOSPLIT, $0-52
	MOVQ  rk+0(FP), AX
	MOVQ  body+8(FP), SI
	MOVQ  offs+16(FP), DI
	MOVQ  groups+24(FP), BX
	MOVQ  c+32(FP), R8
	MOVOU 0(R8), X9   // X, loaded as a word is
	MOVOU 16(R8), X10 // the stream shuffle
	MOVQ  8(R8), R11  // X's last eight bytes
	MOVQ  32(R8), R10 // the checksum mask
	MOVQ  40(R8), CX  // the checksum's shift
	MOVQ  zoff+40(FP), R14
	ADDQ  SI, R14     // where the words' last eight bytes begin
	XORQ  R13, R13
	MOVQ  BX, R9
	DECQ  R9
	SHLQ  $6, R9
	ADDQ  R9, DI

group:
	TESTQ BX, BX
	JZ    done
	LOAD(0, X0)
	LOAD(8, X1)
	LOAD(16, X2)
	LOAD(24, X3)
	LOAD(32, X4)
	LOAD(40, X5)
	LOAD(48, X6)
	LOAD(56, X7)
	ROUND(PXOR, 0)
	ROUND(AESENC, 16)
	ROUND(AESENC, 32)
	ROUND(AESENC, 48)
	ROUND(AESENC, 64)
	ROUND(AESENC, 80)
	ROUND(AESENC, 96)
	ROUND(AESENC, 112)
	ROUND(AESENC, 128)
	ROUND(AESENC, 144)
	ROUND(AESENC, 160)
	ROUND(AESENC, 176)
	ROUND(AESENC, 192)
	ROUND(AESENC, 208)
	ROUND(AESENCLAST, 224)
	CHECK(56, X7)
	CHECK(48, X6)
	CHECK(40, X5)
	CHECK(32, X4)
	CHECK(24, X3)
	CHECK(16, X2)
	CHECK(8, X1)
	CHECK(0, X0)
	SUBQ  $64, DI
	DECQ  BX
	JMP   group

done:
	MOVL R13, ret+48(FP)
	RET
