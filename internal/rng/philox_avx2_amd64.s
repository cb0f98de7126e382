// AVX2 Philox4x32-10 batch kernels. Eight independent blocks are advanced
// per iteration in structure-of-arrays form: Y0..Y3 hold component c0..c3 of
// all eight blocks. VPMULUDQ multiplies only the even 32-bit lanes, so each
// round does the even lanes in place and the odd lanes through a 32-bit
// shift, then recombines the hi/lo product halves with VPBLENDD. The final
// 4x8 -> 8x4 transpose (VPUNPCK{L,H}DQ, VPUNPCK{L,H}QDQ, VPERM2I128) stores
// the blocks in exactly Block's array-of-blocks output order, so the vector
// path is bit-identical to the scalar generator by construction.
//
// PHILOX_ROUNDS runs the ten rounds on state Y0..Y3 with round keys Y12/Y13
// (clobbered), Y8/Y9 = M0/M1, Y10/Y11 = W0/W1, Y4..Y7 and Y15 as
// temporaries, CX as the round counter:
//   Y4 = even-lane M0*c0, Y5 = odd-lane M0*c0 (then hi1), Y15 = hi0,
//   Y6 = even-lane M1*c2 (then lo1), Y7 = odd-lane M1*c2,
//   c0' = hi1^c1^k0, c1' = lo1, c2' = hi0^c3^k1, c3' = lo0.
// PHILOX_STORE transposes Y0..Y3 into eight consecutive 16-byte blocks at
// (DI) and advances DI, clobbering Y4..Y7.
//
// The accept kernels (acceptRowAVX2, acceptLanesAVX2) run the same rounds and
// then, instead of storing the blocks, compare them against the Metropolis
// thresholds in registers: u < t for unsigned u is the signed compare
// t^2^31 > u^2^31 (PHILOX_BIAS flips the sign bits of Y0..Y3), and a
// threshold of 2^32 or more, which no 32-bit value can hold, becomes an
// all-ones force mask OR'ed into the result.
//
// Scalar arguments reach the vectors through general registers (VMOVD, then
// VPBROADCASTD from the xmm register), so every FP reference names one
// 4-byte element and go vet's asmdecl check can verify it. The move must be
// the VEX-encoded VMOVD: a legacy-SSE MOVD while the upper ymm halves are
// dirty pays an SSE/AVX state transition on every loop iteration, which made
// the kernels about 20x slower on a Xeon host. The accept kernels need their
// general registers for thresholds, masks and pointers, so they broadcast
// the counter and key words from memory through BX = &ctr (key follows ctr
// in the argument frame); asmdecl checks the LEAQ, not those offsets.

#include "textflag.h"

DATA ·philoxLaneIota+0(SB)/4, $0
DATA ·philoxLaneIota+4(SB)/4, $1
DATA ·philoxLaneIota+8(SB)/4, $2
DATA ·philoxLaneIota+12(SB)/4, $3
DATA ·philoxLaneIota+16(SB)/4, $4
DATA ·philoxLaneIota+20(SB)/4, $5
DATA ·philoxLaneIota+24(SB)/4, $6
DATA ·philoxLaneIota+28(SB)/4, $7
GLOBL ·philoxLaneIota(SB), RODATA|NOPTR, $32

DATA ·philoxEight+0(SB)/4, $8
DATA ·philoxEight+4(SB)/4, $8
DATA ·philoxEight+8(SB)/4, $8
DATA ·philoxEight+12(SB)/4, $8
DATA ·philoxEight+16(SB)/4, $8
DATA ·philoxEight+20(SB)/4, $8
DATA ·philoxEight+24(SB)/4, $8
DATA ·philoxEight+28(SB)/4, $8
GLOBL ·philoxEight(SB), RODATA|NOPTR, $32

DATA ·philoxM0v+0(SB)/4, $0xD2511F53
DATA ·philoxM0v+4(SB)/4, $0xD2511F53
DATA ·philoxM0v+8(SB)/4, $0xD2511F53
DATA ·philoxM0v+12(SB)/4, $0xD2511F53
DATA ·philoxM0v+16(SB)/4, $0xD2511F53
DATA ·philoxM0v+20(SB)/4, $0xD2511F53
DATA ·philoxM0v+24(SB)/4, $0xD2511F53
DATA ·philoxM0v+28(SB)/4, $0xD2511F53
GLOBL ·philoxM0v(SB), RODATA|NOPTR, $32

DATA ·philoxM1v+0(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+4(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+8(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+12(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+16(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+20(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+24(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+28(SB)/4, $0xCD9E8D57
GLOBL ·philoxM1v(SB), RODATA|NOPTR, $32

DATA ·philoxW0v+0(SB)/4, $0x9E3779B9
DATA ·philoxW0v+4(SB)/4, $0x9E3779B9
DATA ·philoxW0v+8(SB)/4, $0x9E3779B9
DATA ·philoxW0v+12(SB)/4, $0x9E3779B9
DATA ·philoxW0v+16(SB)/4, $0x9E3779B9
DATA ·philoxW0v+20(SB)/4, $0x9E3779B9
DATA ·philoxW0v+24(SB)/4, $0x9E3779B9
DATA ·philoxW0v+28(SB)/4, $0x9E3779B9
GLOBL ·philoxW0v(SB), RODATA|NOPTR, $32

DATA ·philoxW1v+0(SB)/4, $0xBB67AE85
DATA ·philoxW1v+4(SB)/4, $0xBB67AE85
DATA ·philoxW1v+8(SB)/4, $0xBB67AE85
DATA ·philoxW1v+12(SB)/4, $0xBB67AE85
DATA ·philoxW1v+16(SB)/4, $0xBB67AE85
DATA ·philoxW1v+20(SB)/4, $0xBB67AE85
DATA ·philoxW1v+24(SB)/4, $0xBB67AE85
DATA ·philoxW1v+28(SB)/4, $0xBB67AE85
GLOBL ·philoxW1v(SB), RODATA|NOPTR, $32

DATA ·philoxSignBias+0(SB)/4, $0x80000000
DATA ·philoxSignBias+4(SB)/4, $0x80000000
DATA ·philoxSignBias+8(SB)/4, $0x80000000
DATA ·philoxSignBias+12(SB)/4, $0x80000000
DATA ·philoxSignBias+16(SB)/4, $0x80000000
DATA ·philoxSignBias+20(SB)/4, $0x80000000
DATA ·philoxSignBias+24(SB)/4, $0x80000000
DATA ·philoxSignBias+28(SB)/4, $0x80000000
GLOBL ·philoxSignBias(SB), RODATA|NOPTR, $32

// VPSHUFB control of an in-lane 4x4 byte transpose: byte 4c+b -> byte 4b+c.
DATA ·philoxAcceptTranspose+0(SB)/4, $0x0C080400
DATA ·philoxAcceptTranspose+4(SB)/4, $0x0D090501
DATA ·philoxAcceptTranspose+8(SB)/4, $0x0E0A0602
DATA ·philoxAcceptTranspose+12(SB)/4, $0x0F0B0703
DATA ·philoxAcceptTranspose+16(SB)/4, $0x0C080400
DATA ·philoxAcceptTranspose+20(SB)/4, $0x0D090501
DATA ·philoxAcceptTranspose+24(SB)/4, $0x0E0A0602
DATA ·philoxAcceptTranspose+28(SB)/4, $0x0F0B0703
GLOBL ·philoxAcceptTranspose(SB), RODATA|NOPTR, $32

// VPERMD control gathering the low dwords of four uint64s into the low
// 128-bit lane and their high dwords into the high lane.
DATA ·philoxEvenOdd+0(SB)/4, $0
DATA ·philoxEvenOdd+4(SB)/4, $2
DATA ·philoxEvenOdd+8(SB)/4, $4
DATA ·philoxEvenOdd+12(SB)/4, $6
DATA ·philoxEvenOdd+16(SB)/4, $1
DATA ·philoxEvenOdd+20(SB)/4, $3
DATA ·philoxEvenOdd+24(SB)/4, $5
DATA ·philoxEvenOdd+28(SB)/4, $7
GLOBL ·philoxEvenOdd(SB), RODATA|NOPTR, $32

#define PHILOX_ROUNDS(label)     \
	MOVQ $10, CX                 \
label:                           \
	VPMULUDQ Y0, Y8, Y4          \
	VPSRLQ $32, Y0, Y5           \
	VPMULUDQ Y5, Y8, Y5          \
	VPMULUDQ Y2, Y9, Y6          \
	VPSRLQ $32, Y2, Y7           \
	VPMULUDQ Y7, Y9, Y7          \
	VPSRLQ $32, Y4, Y15          \
	VPBLENDD $0xAA, Y5, Y15, Y15 \
	VPSLLQ $32, Y5, Y5           \
	VPBLENDD $0xAA, Y5, Y4, Y4   \
	VPSRLQ $32, Y6, Y5           \
	VPBLENDD $0xAA, Y7, Y5, Y5   \
	VPSLLQ $32, Y7, Y7           \
	VPBLENDD $0xAA, Y7, Y6, Y6   \
	VPXOR Y5, Y1, Y0             \
	VPXOR Y12, Y0, Y0            \
	VPXOR Y15, Y3, Y2            \
	VPXOR Y13, Y2, Y2            \
	VMOVDQA Y6, Y1               \
	VMOVDQA Y4, Y3               \
	VPADDD Y10, Y12, Y12         \
	VPADDD Y11, Y13, Y13         \
	DECQ CX                      \
	JNZ label

#define PHILOX_STORE             \
	VPUNPCKLDQ Y1, Y0, Y4        \
	VPUNPCKHDQ Y1, Y0, Y5        \
	VPUNPCKLDQ Y3, Y2, Y6        \
	VPUNPCKHDQ Y3, Y2, Y7        \
	VPUNPCKLQDQ Y6, Y4, Y0       \
	VPUNPCKHQDQ Y6, Y4, Y1       \
	VPUNPCKLQDQ Y7, Y5, Y2       \
	VPUNPCKHQDQ Y7, Y5, Y3       \
	VPERM2I128 $0x20, Y1, Y0, Y4 \
	VPERM2I128 $0x20, Y3, Y2, Y5 \
	VPERM2I128 $0x31, Y1, Y0, Y6 \
	VPERM2I128 $0x31, Y3, Y2, Y7 \
	VMOVDQU Y4, (DI)             \
	VMOVDQU Y5, 32(DI)           \
	VMOVDQU Y6, 64(DI)           \
	VMOVDQU Y7, 96(DI)           \
	ADDQ $128, DI

#define PHILOX_BIAS                        \
	VPXOR ·philoxSignBias(SB), Y0, Y0      \
	VPXOR ·philoxSignBias(SB), Y1, Y1      \
	VPXOR ·philoxSignBias(SB), Y2, Y2      \
	VPXOR ·philoxSignBias(SB), Y3, Y3

// ROW_THRESHOLD splits a threshold t (clobbered) into its biased low word
// and the force mask, all ones when t >= 2^32 (NEGQ sets the carry exactly
// when t>>32 is not zero).
#define ROW_THRESHOLD(t, biased, force) \
	MOVL t, biased                      \
	XORL $0x80000000, biased            \
	SHRQ $32, t                         \
	NEGQ t                              \
	SBBL force, force

// ROW_MASK compares the biased blocks Y0..Y3 (component c of block b in
// lane b) against the broadcast biased threshold t and stores the 32-bit
// mask, bit 4b+c, OR force, at (dst). Two saturating packs gather the 32
// compare results as bytes in order 4c+b per 128-bit lane, the transpose
// reorders them to 4b+c and VPMOVMSKB collects their sign bits.
#define ROW_MASK(t, force, dst)                   \
	VPCMPGTD Y0, t, Y4                            \
	VPCMPGTD Y1, t, Y5                            \
	VPCMPGTD Y2, t, Y6                            \
	VPCMPGTD Y3, t, Y7                            \
	VPACKSSDW Y5, Y4, Y4                          \
	VPACKSSDW Y7, Y6, Y6                          \
	VPACKSSWB Y6, Y4, Y4                          \
	VPSHUFB ·philoxAcceptTranspose(SB), Y4, Y4    \
	VPMOVMSKB Y4, AX                              \
	ORL force, AX                                 \
	MOVL AX, (dst)

// LANE_THRESHOLDS loads the eight uint64 thresholds at (src) into Y6 =
// biased low words and Y7 = force masks (high word > 0, i.e. t >= 2^32 for
// any t < 2^63), clobbering Y4, Y5, Y12 and Y13.
#define LANE_THRESHOLDS(src)                \
	VMOVDQU ·philoxEvenOdd(SB), Y12         \
	VPERMD (src), Y12, Y4                   \
	VPERMD 32(src), Y12, Y5                 \
	VPERM2I128 $0x20, Y5, Y4, Y6            \
	VPERM2I128 $0x31, Y5, Y4, Y7            \
	VPXOR ·philoxSignBias(SB), Y6, Y6       \
	VPXOR Y13, Y13, Y13                     \
	VPCMPGTD Y13, Y7, Y7

// LANE_MASKS compares component c of the biased blocks (Y0..Y3, lane l in
// lane l) against Y6, ORs the force mask Y7 and stores the eight lane bits
// as byte 0 of the c-th uint64 at (dst).
#define LANE_MASKS(dst)      \
	VPCMPGTD Y0, Y6, Y4      \
	VPOR Y7, Y4, Y4          \
	VMOVMSKPS Y4, AX         \
	MOVB AX, (dst)           \
	VPCMPGTD Y1, Y6, Y4      \
	VPOR Y7, Y4, Y4          \
	VMOVMSKPS Y4, AX         \
	MOVB AX, 8(dst)          \
	VPCMPGTD Y2, Y6, Y4      \
	VPOR Y7, Y4, Y4          \
	VMOVMSKPS Y4, AX         \
	MOVB AX, 16(dst)         \
	VPCMPGTD Y3, Y6, Y4      \
	VPOR Y7, Y4, Y4          \
	VMOVMSKPS Y4, AX         \
	MOVB AX, 24(dst)

// func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key)
TEXT ·blockRowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	MOVL ctr_0+16(FP), R10
	MOVL ctr_1+20(FP), R11
	MOVL ctr_2+24(FP), R12
	MOVL key_0+32(FP), R13
	MOVL key_1+36(FP), BX
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11

	// Y14 = running c3 vector: broadcast ctr[3] + {0..7}, advanced by 8
	// per iteration (wrapping mod 2^32 like the scalar counter walk).
	MOVL ctr_3+28(FP), AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	VPADDD ·philoxLaneIota(SB), Y14, Y14

rowloop:
	VMOVD R10, X0
	VPBROADCASTD X0, Y0
	VMOVD R11, X1
	VPBROADCASTD X1, Y1
	VMOVD R12, X2
	VPBROADCASTD X2, Y2
	VMOVDQA Y14, Y3
	VMOVD R13, X12
	VPBROADCASTD X12, Y12
	VMOVD BX, X13
	VPBROADCASTD X13, Y13
	PHILOX_ROUNDS(rowround)
	PHILOX_STORE
	VPADDD ·philoxEight(SB), Y14, Y14
	SUBQ $8, SI
	JNZ rowloop
	VZEROUPPER
	RET

// func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32)
TEXT ·blockLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	MOVL ctr_0+16(FP), R10
	MOVL ctr_1+20(FP), R11
	MOVL ctr_2+24(FP), R12
	MOVL ctr_3+28(FP), R13
	MOVQ k0s+32(FP), R8
	MOVQ k1s+40(FP), R9
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11

laneloop:
	VMOVD R10, X0
	VPBROADCASTD X0, Y0
	VMOVD R11, X1
	VPBROADCASTD X1, Y1
	VMOVD R12, X2
	VPBROADCASTD X2, Y2
	VMOVD R13, X3
	VPBROADCASTD X3, Y3
	VMOVDQU (R8), Y12
	VMOVDQU (R9), Y13
	PHILOX_ROUNDS(laneround)
	PHILOX_STORE
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, SI
	JNZ laneloop
	VZEROUPPER
	RET

// func acceptRowAVX2(a4, a8 *uint32, n uint64, ctr Counter, key Key, t4, t8 uint64)
TEXT ·acceptRowAVX2(SB), NOSPLIT, $0-64
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ ctr+24(FP), BX // BX points at ctr, followed by key at 16(BX)
	MOVQ t4+48(FP), AX
	ROW_THRESHOLD(AX, R8, R10)
	MOVQ t8+56(FP), AX
	ROW_THRESHOLD(AX, R9, R11)
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11

	// Y14 = running c3 vector: one word is the eight blocks at ctr[3] +
	// {0..7}, advanced by 8 per word.
	MOVL ctr_3+36(FP), AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	VPADDD ·philoxLaneIota(SB), Y14, Y14

acceptrowloop:
	VPBROADCASTD 0(BX), Y0
	VPBROADCASTD 4(BX), Y1
	VPBROADCASTD 8(BX), Y2
	VMOVDQA Y14, Y3
	VPBROADCASTD 16(BX), Y12
	VPBROADCASTD 20(BX), Y13
	PHILOX_ROUNDS(acceptrowround)
	PHILOX_BIAS
	VMOVD R8, X12
	VPBROADCASTD X12, Y12
	VMOVD R9, X13
	VPBROADCASTD X13, Y13
	ROW_MASK(Y12, R10, DI)
	ROW_MASK(Y13, R11, SI)
	ADDQ $4, DI
	ADDQ $4, SI
	VPADDD ·philoxEight(SB), Y14, Y14
	DECQ DX
	JNZ acceptrowloop
	VZEROUPPER
	RET

// func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
TEXT ·acceptLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ ctr+24(FP), BX
	MOVQ k0s+40(FP), R8
	MOVQ k1s+48(FP), R9
	MOVQ t4s+56(FP), R10
	MOVQ t8s+64(FP), R11
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11

acceptlaneloop:
	VPBROADCASTD 0(BX), Y0
	VPBROADCASTD 4(BX), Y1
	VPBROADCASTD 8(BX), Y2
	VPBROADCASTD 12(BX), Y3
	VMOVDQU (R8), Y12
	VMOVDQU (R9), Y13
	PHILOX_ROUNDS(acceptlaneround)
	PHILOX_BIAS
	LANE_THRESHOLDS(R10)
	LANE_MASKS(DI)
	LANE_THRESHOLDS(R11)
	LANE_MASKS(SI)
	INCQ DI
	INCQ SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $8, DX
	JNZ acceptlaneloop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (ax, bx, cx, dx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, ax+8(FP)
	MOVL BX, bx+12(FP)
	MOVL CX, cx+16(FP)
	MOVL DX, dx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ DX, AX
	MOVQ AX, ret+0(FP)
	RET
