// AVX2 Philox4x32-10 batch kernels. Eight independent blocks form one state
// in structure-of-arrays form: four ymm registers hold component c0..c3 of
// all eight blocks. VPMULUDQ multiplies only the even 32-bit lanes, so each
// round does the even lanes in place and the odd lanes through a 32-bit
// shift, then recombines the hi/lo product halves with VPBLENDD. The final
// 4x8 -> 8x4 transpose (VPUNPCK{L,H}DQ, VPUNPCK{L,H}QDQ, VPERM2I128) stores
// the blocks in exactly Block's array-of-blocks output order, so the vector
// path is bit-identical to the scalar generator by construction.
//
// One state's round is a latency-bound chain (multiply, shift, blend, xor),
// so every kernel advances two independent states per loop iteration, A in
// Y0..Y3 and B in Y4..Y7, and lets the out-of-order core overlap their
// chains; an odd final group of eight blocks runs as one iteration on A
// alone. PHILOX_ROUND is the only round body and serves both: it takes the
// state and its two round keys as arguments and uses Y13..Y15 as
// temporaries, which both states share because register renaming removes
// the false dependencies. M0/M1 and W0/W1 are read as memory operands to
// leave the registers to the states and keys:
//   row kernels (blockRowAVX2, acceptRowsAVX2): Y8/Y9 = broadcast round
//     keys k0/k1 shared by A and B, Y10 = A's running c3 vector (B's is
//     c3+8); acceptRowsAVX2 starts each state at the next word of a (row,
//     column) walk (ROWS_CTR: Y10 restarts and the local row advances at
//     each row's end, R12 counts the words left in the row), so its two
//     states may sit in two rows, and keeps its biased thresholds t4/t8 in
//     Y11/Y12;
//   lane kernels (blockLanesAVX2, acceptLanesAVX2): Y8/Y9 = A's per-lane
//     round keys, Y10/Y11 = B's, Y12 = the accept kernel's VPERMD control.
// PHILOX_STORE transposes one state into eight consecutive 16-byte blocks at
// (DI) and advances DI, clobbering Y8 and Y13..Y15.
//
// The accept kernels (acceptRowsAVX2, acceptLanesAVX2) run the same rounds and
// then, instead of storing the blocks, compare them against the Metropolis
// thresholds in registers: u < t for unsigned u is the signed compare
// t^2^31 > u^2^31 (PHILOX_BIAS flips the sign bits of a state), and a
// threshold of 2^32 or more, which no 32-bit value can hold, becomes a
// force mask OR'ed into the result (all ones in the lane kernel, the even
// bits in the row kernel). The row kernel stores one word-aligned uint64
// per word: the compare bytes are interleaved with zero before VPMOVMSKB,
// so ordinal j lands on bit 2j without BMI2.
//
// Every kernel broadcasts the counter and key words from memory through
// BX = &ctr (a row kernel's key follows ctr in the argument frame); asmdecl
// checks the LEAQ, not those offsets. The accept row kernel's thresholds
// reach the vectors through general registers, which must use the
// VEX-encoded VMOVD: a legacy-SSE MOVD while the upper ymm halves are dirty
// pays an SSE/AVX state transition on every loop iteration, which made the
// kernels about 20x slower on a Xeon host.


#include "textflag.h"

// Counter offsets {0..15}: the AVX2 row kernels read the first eight,
// acceptRowsAVX512 (philox_avx512_amd64.s) all sixteen for a state inside
// one row and the first eight, in both halves, for a state across two.
// That file also reads the M0/M1/W0/W1 vectors below, as embedded
// broadcasts.
DATA ·philoxLaneIota+0(SB)/4, $0
DATA ·philoxLaneIota+4(SB)/4, $1
DATA ·philoxLaneIota+8(SB)/4, $2
DATA ·philoxLaneIota+12(SB)/4, $3
DATA ·philoxLaneIota+16(SB)/4, $4
DATA ·philoxLaneIota+20(SB)/4, $5
DATA ·philoxLaneIota+24(SB)/4, $6
DATA ·philoxLaneIota+28(SB)/4, $7
DATA ·philoxLaneIota+32(SB)/4, $8
DATA ·philoxLaneIota+36(SB)/4, $9
DATA ·philoxLaneIota+40(SB)/4, $10
DATA ·philoxLaneIota+44(SB)/4, $11
DATA ·philoxLaneIota+48(SB)/4, $12
DATA ·philoxLaneIota+52(SB)/4, $13
DATA ·philoxLaneIota+56(SB)/4, $14
DATA ·philoxLaneIota+60(SB)/4, $15
GLOBL ·philoxLaneIota(SB), RODATA|NOPTR, $64

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

// The even bits of a word: the row kernels' force-mask filter, and in
// acceptRowsAVX512 the PDEPQ mask that moves compact bit j to 2j.
DATA ·philoxEvenBits+0(SB)/8, $0x5555555555555555
GLOBL ·philoxEvenBits(SB), RODATA|NOPTR, $8

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

// PHILOX_ROUND runs one round on the state c0..c3 under round keys k0/k1:
// c0' = hi(M1*c2)^c1^k0, c1' = lo(M1*c2), c2' = hi(M0*c0)^c3^k1,
// c3' = lo(M0*c0). The key XORs are taken off the multiply chain: Y15 =
// c1^k0 first, and c2 = c3^k1 once c2 has fed the multiply; c1 and c3 then
// serve as scratch for the product halves.
#define PHILOX_ROUND(c0, c1, c2, c3, k0, k1) \
	VPXOR k0, c1, Y15                       \
	VPMULUDQ ·philoxM1v(SB), c2, Y13        \
	VPSRLQ $32, c2, Y14                     \
	VPMULUDQ ·philoxM1v(SB), Y14, Y14       \
	VPXOR k1, c3, c2                        \
	VPSLLQ $32, Y14, c1                     \
	VPBLENDD $0xAA, c1, Y13, c1             \
	VPSRLQ $32, Y13, Y13                    \
	VPBLENDD $0xAA, Y14, Y13, Y13           \
	VPMULUDQ ·philoxM0v(SB), c0, Y14        \
	VPSRLQ $32, c0, c3                      \
	VPMULUDQ ·philoxM0v(SB), c3, c3         \
	VPXOR Y13, Y15, c0                      \
	VPSRLQ $32, Y14, Y13                    \
	VPBLENDD $0xAA, c3, Y13, Y13            \
	VPXOR Y13, c2, c2                       \
	VPSLLQ $32, c3, c3                      \
	VPBLENDD $0xAA, c3, Y14, c3

// PHILOX_NEXT_KEY advances the round keys k0/k1 by W0/W1.
#define PHILOX_NEXT_KEY(k0, k1)       \
	VPADDD ·philoxW0v(SB), k0, k0     \
	VPADDD ·philoxW1v(SB), k1, k1

#define PHILOX_STORE(c0, c1, c2, c3) \
	VPUNPCKLDQ c1, c0, Y13           \
	VPUNPCKHDQ c1, c0, Y14           \
	VPUNPCKLDQ c3, c2, Y15           \
	VPUNPCKHDQ c3, c2, Y8            \
	VPUNPCKLQDQ Y15, Y13, c0         \
	VPUNPCKHQDQ Y15, Y13, c1         \
	VPUNPCKLQDQ Y8, Y14, c2          \
	VPUNPCKHQDQ Y8, Y14, c3          \
	VPERM2I128 $0x20, c1, c0, Y13    \
	VPERM2I128 $0x20, c3, c2, Y14    \
	VPERM2I128 $0x31, c1, c0, Y15    \
	VPERM2I128 $0x31, c3, c2, Y8     \
	VMOVDQU Y13, (DI)                \
	VMOVDQU Y14, 32(DI)              \
	VMOVDQU Y15, 64(DI)              \
	VMOVDQU Y8, 96(DI)               \
	ADDQ $128, DI

#define PHILOX_BIAS(c0, c1, c2, c3)        \
	VPXOR ·philoxSignBias(SB), c0, c0      \
	VPXOR ·philoxSignBias(SB), c1, c1      \
	VPXOR ·philoxSignBias(SB), c2, c2      \
	VPXOR ·philoxSignBias(SB), c3, c3

// ROW_STATE starts state A at the counter words of (BX) with Y3 = Y10 and
// loads the round keys of 16(BX). ROW_STATE_PAIR also starts state B at
// c3+8 and advances Y10 past both.
#define ROW_STATE                \
	VPBROADCASTD 0(BX), Y0       \
	VPBROADCASTD 4(BX), Y1       \
	VPBROADCASTD 8(BX), Y2       \
	VMOVDQA Y10, Y3              \
	VPBROADCASTD 16(BX), Y8      \
	VPBROADCASTD 20(BX), Y9

#define ROW_STATE_PAIR                      \
	ROW_STATE                               \
	VMOVDQA Y0, Y4                          \
	VMOVDQA Y1, Y5                          \
	VMOVDQA Y2, Y6                          \
	VPADDD ·philoxEight(SB), Y10, Y7        \
	VPADDD ·philoxEight(SB), Y7, Y10

// ROWS_CTR(c2, c3, next) sets one eight-block state's counter vectors to
// the walk's next word and steps the walk; next names the macro's label.
// The word's c2 is the local row (ctr[2] + its row), its c3 is Y10
// (ctr[3] + 8 x its column + {0..7}), which then advances by eight. Past
// the last word of a row (R12, the words left in the row, reaching zero)
// the walk opens the next row: row += 1, Y10 = ctr[3] + {0..7} and R12 =
// rowWords. Both counter words wrap mod 2^32 on their own. Inside a row
// that is a broadcast load and two vector moves, the cost of the running
// counter of one long row.
#define ROWS_CTR(c2, c3, next)                  \
	VPBROADCASTD row-4(SP), c2                  \
	VMOVDQA Y10, c3                             \
	VPADDD ·philoxEight(SB), Y10, Y10           \
	DECQ R12                                    \
	JNZ next                                    \
	ADDL $1, row-4(SP)                          \
	VPBROADCASTD 12(BX), Y10                    \
	VPADDD ·philoxLaneIota(SB), Y10, Y10        \
	MOVQ rowWords+24(FP), R12                   \
next:

// ROWS_STATE(next) starts state A at the next word of the walk and loads
// the round keys of 16(BX). ROWS_STATE_PAIR(nexta, nextb) also starts state
// B at the word after it, which may open the next row.
#define ROWS_STATE(next)              \
	VPBROADCASTD 0(BX), Y0            \
	VPBROADCASTD 4(BX), Y1            \
	ROWS_CTR(Y2, Y3, next)            \
	VPBROADCASTD 16(BX), Y8           \
	VPBROADCASTD 20(BX), Y9

#define ROWS_STATE_PAIR(nexta, nextb) \
	ROWS_STATE(nexta)                 \
	VMOVDQA Y0, Y4                    \
	VMOVDQA Y1, Y5                    \
	ROWS_CTR(Y6, Y7, nextb)

// LANE_STATE starts state A at the counter words of (BX) under the lane
// keys at (R8)/(R9). LANE_STATE_PAIR also starts state B under the next
// eight lanes' keys.
#define LANE_STATE               \
	VPBROADCASTD 0(BX), Y0       \
	VPBROADCASTD 4(BX), Y1       \
	VPBROADCASTD 8(BX), Y2       \
	VPBROADCASTD 12(BX), Y3      \
	VMOVDQU (R8), Y8             \
	VMOVDQU (R9), Y9

#define LANE_STATE_PAIR          \
	LANE_STATE                   \
	VMOVDQA Y0, Y4               \
	VMOVDQA Y1, Y5               \
	VMOVDQA Y2, Y6               \
	VMOVDQA Y3, Y7               \
	VMOVDQU 32(R8), Y10          \
	VMOVDQU 32(R9), Y11

// ROW_THRESHOLD splits a threshold t (clobbered) into its biased low word
// and the 64-bit force mask, all ones when t >= 2^32 (NEGQ sets the carry
// exactly when t>>32 is not zero).
#define ROW_THRESHOLD(t, biased, force) \
	MOVL t, biased                      \
	XORL $0x80000000, biased            \
	SHRQ $32, t                         \
	NEGQ t                              \
	SBBQ force, force

// ROW_MASK compares the biased blocks c0..c3 (component c of block b in
// lane b) against the broadcast biased threshold t and stores the 64-bit
// mask, bit 2(4b+c), OR force, at dst. Two saturating packs gather the 32
// compare results as bytes in order 4c+b per 128-bit lane and the
// transpose reorders them to j = 4b+c, so the ymm holds j = 0..31 as
// qwords q0..q3. VPERMQ puts q0,q1 in the low qwords of the two lanes and
// q2,q3 in the high ones; interleaving with zero (VPUNPCKLBW/VPUNPCKHBW)
// then puts byte j at 2j of each half, and VPMOVMSKB collects the halves'
// sign bits as the low and high 32 bits of the word. It clobbers CX.
#define ROW_MASK(c0, c1, c2, c3, t, force, dst)   \
	VPCMPGTD c0, t, Y13                           \
	VPCMPGTD c1, t, Y14                           \
	VPACKSSDW Y14, Y13, Y13                       \
	VPCMPGTD c2, t, Y14                           \
	VPCMPGTD c3, t, Y15                           \
	VPACKSSDW Y15, Y14, Y14                       \
	VPACKSSWB Y14, Y13, Y13                       \
	VPSHUFB ·philoxAcceptTranspose(SB), Y13, Y13  \
	VPERMQ $0xD8, Y13, Y13                        \
	VPXOR Y15, Y15, Y15                           \
	VPUNPCKLBW Y15, Y13, Y14                      \
	VPUNPCKHBW Y15, Y13, Y13                      \
	VPMOVMSKB Y14, AX                             \
	VPMOVMSKB Y13, CX                             \
	SHLQ $32, CX                                  \
	ORQ CX, AX                                    \
	ORQ force, AX                                 \
	MOVQ AX, dst

// ROW_ACCEPT stores the next word's accept masks of state c0..c3 under the
// thresholds of acceptRowsAVX2 and advances DI and SI.
#define ROW_ACCEPT(c0, c1, c2, c3)            \
	PHILOX_BIAS(c0, c1, c2, c3)               \
	ROW_MASK(c0, c1, c2, c3, Y11, R10, (DI))  \
	ROW_MASK(c0, c1, c2, c3, Y12, R11, (SI))  \
	ADDQ $8, DI                               \
	ADDQ $8, SI

// LANE_THRESHOLDS loads the eight uint64 thresholds at (src) into Y15 =
// biased low words and Y14 = force masks (high word > 0, i.e. t >= 2^32 for
// any t < 2^63), with Y12 = philoxEvenOdd, clobbering Y13.
#define LANE_THRESHOLDS(src)                \
	VPERMD (src), Y12, Y13                  \
	VPERMD 32(src), Y12, Y14                \
	VPERM2I128 $0x20, Y14, Y13, Y15         \
	VPERM2I128 $0x31, Y14, Y13, Y14         \
	VPXOR ·philoxSignBias(SB), Y15, Y15     \
	VPXOR Y13, Y13, Y13                     \
	VPCMPGTD Y13, Y14, Y14

// LANE_MASKS compares component c of the biased blocks (c0..c3, lane l in
// lane l) against Y15, ORs the force mask Y14 and stores the eight lane bits
// as byte 0 of the c-th uint64 at (dst).
#define LANE_MASKS(c0, c1, c2, c3, dst) \
	VPCMPGTD c0, Y15, Y13               \
	VPOR Y14, Y13, Y13                  \
	VMOVMSKPS Y13, AX                   \
	MOVB AX, (dst)                      \
	VPCMPGTD c1, Y15, Y13               \
	VPOR Y14, Y13, Y13                  \
	VMOVMSKPS Y13, AX                   \
	MOVB AX, 8(dst)                     \
	VPCMPGTD c2, Y15, Y13               \
	VPOR Y14, Y13, Y13                  \
	VMOVMSKPS Y13, AX                   \
	MOVB AX, 16(dst)                    \
	VPCMPGTD c3, Y15, Y13               \
	VPOR Y14, Y13, Y13                  \
	VMOVMSKPS Y13, AX                   \
	MOVB AX, 24(dst)

// LANE_ACCEPT stores the next eight lanes' masks of state c0..c3 under the
// thresholds at (R10)/(R11) and advances DI, SI, R10 and R11.
#define LANE_ACCEPT(c0, c1, c2, c3)    \
	PHILOX_BIAS(c0, c1, c2, c3)        \
	LANE_THRESHOLDS(R10)               \
	LANE_MASKS(c0, c1, c2, c3, DI)     \
	LANE_THRESHOLDS(R11)               \
	LANE_MASKS(c0, c1, c2, c3, SI)     \
	INCQ DI                            \
	INCQ SI                            \
	ADDQ $64, R10                      \
	ADDQ $64, R11

// func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key)
TEXT ·blockRowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	LEAQ ctr+16(FP), BX

	// Y10 = running c3 vector: broadcast ctr[3] + {0..7}, advanced by 8
	// per state (wrapping mod 2^32 like the scalar counter walk).
	VPBROADCASTD 12(BX), Y10
	VPADDD ·philoxLaneIota(SB), Y10, Y10
	MOVQ SI, DX
	SHRQ $4, DX
	JZ rowtail

rowpair:
	ROW_STATE_PAIR
	MOVQ $10, CX
rowpairround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_ROUND(Y4, Y5, Y6, Y7, Y8, Y9)
	PHILOX_NEXT_KEY(Y8, Y9)
	DECQ CX
	JNZ rowpairround
	PHILOX_STORE(Y0, Y1, Y2, Y3)
	PHILOX_STORE(Y4, Y5, Y6, Y7)
	DECQ DX
	JNZ rowpair

rowtail:
	TESTQ $8, SI
	JZ rowdone
	ROW_STATE
	MOVQ $10, CX
rowtailround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_NEXT_KEY(Y8, Y9)
	DECQ CX
	JNZ rowtailround
	PHILOX_STORE(Y0, Y1, Y2, Y3)

rowdone:
	VZEROUPPER
	RET

// func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32)
TEXT ·blockLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	LEAQ ctr+16(FP), BX
	MOVQ k0s+32(FP), R8
	MOVQ k1s+40(FP), R9
	MOVQ SI, DX
	SHRQ $4, DX
	JZ lanetail

lanepair:
	LANE_STATE_PAIR
	MOVQ $10, CX
lanepairround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_ROUND(Y4, Y5, Y6, Y7, Y10, Y11)
	PHILOX_NEXT_KEY(Y8, Y9)
	PHILOX_NEXT_KEY(Y10, Y11)
	DECQ CX
	JNZ lanepairround
	PHILOX_STORE(Y0, Y1, Y2, Y3)
	PHILOX_STORE(Y4, Y5, Y6, Y7)
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ DX
	JNZ lanepair

lanetail:
	TESTQ $8, SI
	JZ lanedone
	LANE_STATE
	MOVQ $10, CX
lanetailround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_NEXT_KEY(Y8, Y9)
	DECQ CX
	JNZ lanetailround
	PHILOX_STORE(Y0, Y1, Y2, Y3)

lanedone:
	VZEROUPPER
	RET

// func acceptRowsAVX2(a4, a8 *uint64, n, rowWords uint64, ctr Counter, key Key, t4, t8 uint64)
TEXT ·acceptRowsAVX2(SB), NOSPLIT, $8-72
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ ctr+32(FP), BX
	MOVQ t4+56(FP), AX
	ROW_THRESHOLD(AX, R8, R10)
	MOVQ t8+64(FP), AX
	ROW_THRESHOLD(AX, R9, R11)
	VMOVD R8, X11
	VPBROADCASTD X11, Y11
	VMOVD R9, X12
	VPBROADCASTD X12, Y12
	ANDQ ·philoxEvenBits(SB), R10
	ANDQ ·philoxEvenBits(SB), R11

	// The walk starts at word 0 of row 0: row = ctr[2], Y10 = ctr[3] +
	// {0..7}, R12 = rowWords words left in the row.
	MOVL 8(BX), AX
	MOVL AX, row-4(SP)
	VPBROADCASTD 12(BX), Y10
	VPADDD ·philoxLaneIota(SB), Y10, Y10
	MOVQ rowWords+24(FP), R12

	// DX counts the words left minus two; its low bit stays n's.
	SUBQ $2, DX
	JCS acceptrowtail

acceptrowpair:
	ROWS_STATE_PAIR(pairanext, pairbnext)
	MOVQ $10, CX
acceptrowpairround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_ROUND(Y4, Y5, Y6, Y7, Y8, Y9)
	PHILOX_NEXT_KEY(Y8, Y9)
	DECQ CX
	JNZ acceptrowpairround
	ROW_ACCEPT(Y0, Y1, Y2, Y3)
	ROW_ACCEPT(Y4, Y5, Y6, Y7)
	SUBQ $2, DX
	JCC acceptrowpair

acceptrowtail:
	TESTQ $1, DX
	JZ acceptrowdone
	ROWS_STATE(tailnext)
	MOVQ $10, CX
acceptrowtailround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_NEXT_KEY(Y8, Y9)
	DECQ CX
	JNZ acceptrowtailround
	ROW_ACCEPT(Y0, Y1, Y2, Y3)

acceptrowdone:
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
	VMOVDQU ·philoxEvenOdd(SB), Y12
	MOVQ DX, R12
	SHRQ $4, R12
	JZ acceptlanetail

acceptlanepair:
	LANE_STATE_PAIR
	MOVQ $10, CX
acceptlanepairround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_ROUND(Y4, Y5, Y6, Y7, Y10, Y11)
	PHILOX_NEXT_KEY(Y8, Y9)
	PHILOX_NEXT_KEY(Y10, Y11)
	DECQ CX
	JNZ acceptlanepairround
	LANE_ACCEPT(Y0, Y1, Y2, Y3)
	LANE_ACCEPT(Y4, Y5, Y6, Y7)
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ R12
	JNZ acceptlanepair

acceptlanetail:
	TESTQ $8, DX
	JZ acceptlanedone
	LANE_STATE
	MOVQ $10, CX
acceptlanetailround:
	PHILOX_ROUND(Y0, Y1, Y2, Y3, Y8, Y9)
	PHILOX_NEXT_KEY(Y8, Y9)
	DECQ CX
	JNZ acceptlanetailround
	LANE_ACCEPT(Y0, Y1, Y2, Y3)

acceptlanedone:
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
