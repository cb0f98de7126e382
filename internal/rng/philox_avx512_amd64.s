// AVX-512 Philox4x32-10 accept kernels. They compute exactly the masks of
// the AVX2 accept kernels in philox_avx2_amd64.s, sixteen blocks per state:
// four zmm registers hold component c0..c3 of sixteen independent blocks.
// Each loop iteration advances two states, A in Z0..Z3 and B in Z4..Z7, so
// their latency-bound round chains overlap; the rest of a call runs one
// sixteen-block state and then, for an odd group of eight blocks, one
// eight-block state in the ymm halves (Y0..Y3, AVX-512VL encodings). Eight
// blocks are all a one-word call or an eight-lane group needs, so the ymm
// state computes no wasted blocks, and a call that runs it alone issues no
// 512-bit instruction. The row kernel runs a call's words as one stream
// whatever the row width: a run of 64 one-word rows fills sixteen pair
// iterations like one 64-word row, and only the counter vectors differ.
//
// PHILOX_ROUND512 is the only round body and serves every state width, in 14
// instructions. VPMULUDQ multiplies the even 32-bit lanes, so the odd lanes
// go through a 32-bit shift. The hi product halves are recombined by a shift
// and a merge-masked VMOVDQA32 under K1 (odd lanes), the lo halves by one
// merge-masked VPSHUFD that moves the odd lanes' low words into the even
// lanes' product register, and VPTERNLOGD $0x96 fuses the two key XORs into
// one three-way XOR. That VPSHUFD leaves c1' and c3' in the temporaries t0
// and t2, so the round runs in pairs (PHILOX_ROUNDS2, or two interleaved
// states in the pair loops) whose second round swaps the two register sets
// back. M0/M1 and W0/W1 are embedded-broadcast memory operands.
//
// The accept compare is the unsigned VPCMPUD straight into a mask register:
// no sign bias, no pack and no byte transpose. A threshold of 2^32 or more,
// which no 32-bit value can hold, becomes a force mask OR'ed into the
// result (the even bits in the row kernel, all lanes in the lane kernel).
// The row kernel gathers a state's compare bits compactly, bit 4b+c, with
// one PDEPQ per component (masks 0x1111...<<c in R8..R11), then
// spreads each 32-bit word half to the even bits with one more PDEPQ
// (philoxEvenBits), so ordinal j = 4b+c lands on bit 2j; a sixteen-block
// state stores two MOVQs per threshold. BMI2's PDEP replaces the AVX2
// kernel's pack, byte transpose and zero interleave. The lane kernel
// narrows the uint64 thresholds with VPMOVUSQD and stores sixteen lane bits
// per component.
//
// Registers besides the states:
//   row kernel (acceptRowsAVX512): Z8/Z9 = broadcast round keys shared by
//     A and B, Z20/Z21 = broadcast low words of t4/t8, the locals
//     force4/force8 = their force masks (even bits only), which leave
//     R8..R11 to the PDEPQ masks, and the (row, column) walk in R12..R14
//     (ROWS_CTR16): a state inside one row takes its counters from the
//     row vectors (the local row = its c2, Z10 = its c3 + {0..15}, Z26 =
//     16 in every lane), a state whose two words sit in two rows gives
//     each eight-block half its own (c2, c3), merged under K2 (the high
//     eight lanes, Z11 = {0..7, 0..7});
//   lane kernel (acceptLanesAVX512): Z8/Z9 = A's per-lane round keys,
//     Z10/Z11 = B's, Z22..Z24, K3 and K4 = threshold scratch;
//   both: Z12..Z15 = A's round temporaries, Z16..Z19 = B's, K1 = the odd
//     32-bit lanes.
// Like the AVX2 kernels, both broadcast the counter and key words from the
// argument frame through BX = &ctr.

#include "textflag.h"

DATA ·philoxHighWord+0(SB)/8, $0xFFFFFFFF00000000
GLOBL ·philoxHighWord(SB), RODATA|NOPTR, $8

// PHILOX_ROUND512 runs one round on the state c0..c3 under round keys k0/k1
// with temporaries t0..t3 (all of one width, ymm or zmm) and leaves the new
// state in c0, t0, c2, t2:
// c0' = hi(M1*c2)^c1^k0, t0' = lo(M1*c2), c2' = hi(M0*c0)^c3^k1,
// t2' = lo(M0*c0). t0/t1 first hold M1*c2 of the even/odd lanes as 64-bit
// products, t2/t3 those of M0*c0.
#define PHILOX_ROUND512(c0, c1, c2, c3, k0, k1, t0, t1, t2, t3) \
	VPMULUDQ.BCST ·philoxM1v(SB), c2, t0   \
	VPSRLQ $32, c2, t1                     \
	VPMULUDQ.BCST ·philoxM1v(SB), t1, t1   \
	VPMULUDQ.BCST ·philoxM0v(SB), c0, t2   \
	VPSRLQ $32, c0, t3                     \
	VPMULUDQ.BCST ·philoxM0v(SB), t3, t3   \
	VPSRLQ $32, t0, c0                     \
	VMOVDQA32 t1, K1, c0                   \
	VPTERNLOGD $0x96, k0, c1, c0           \
	VPSHUFD $0xA0, t1, K1, t0              \
	VPSRLQ $32, t2, c2                     \
	VMOVDQA32 t3, K1, c2                   \
	VPTERNLOGD $0x96, k1, c3, c2           \
	VPSHUFD $0xA0, t3, K1, t2

// PHILOX_ROUNDS2 runs two rounds on one state and leaves it where it began.
#define PHILOX_ROUNDS2(c0, c1, c2, c3, k0, k1, t0, t1, t2, t3) \
	PHILOX_ROUND512(c0, c1, c2, c3, k0, k1, t0, t1, t2, t3) \
	PHILOX_NEXT_KEY512(k0, k1)                              \
	PHILOX_ROUND512(c0, t0, c2, t2, k0, k1, c1, t1, c3, t3) \
	PHILOX_NEXT_KEY512(k0, k1)

// PHILOX_NEXT_KEY512 advances the round keys k0/k1 by W0/W1.
#define PHILOX_NEXT_KEY512(k0, k1)       \
	VPADDD.BCST ·philoxW0v(SB), k0, k0  \
	VPADDD.BCST ·philoxW1v(SB), k1, k1

// ODD_LANES sets K1 to the odd 32-bit lanes, the merge mask of the rounds.
#define ODD_LANES       \
	MOVL $0xAAAA, AX    \
	KMOVW AX, K1

// ROW_STATE(c0, c1, k0, k1) starts a state at the counter words ctr[0] and
// ctr[1] of (BX) and loads the round keys of 16(BX); ROWS_CTR16 or the
// eight-block tail sets its c2 and c3.
#define ROW_STATE(c0, c1, k0, k1) \
	VPBROADCASTD 0(BX), c0        \
	VPBROADCASTD 4(BX), c1        \
	VPBROADCASTD 16(BX), k0       \
	VPBROADCASTD 20(BX), k1

// ROWS_WALK_STEP steps the (row, column) walk to the next word: R14 (the
// word's c3) += 8, and past the last word of a row (R12, the words left in
// the row, reaching zero) R14 = ctr[3], R13 (the row's c2) += 1 and R12 =
// rowWords. Both counter words wrap mod 2^32 on their own. It clobbers AX
// and the flags.
#define ROWS_WALK_STEP                 \
	ADDL $8, R14                       \
	LEAL 1(R13), AX                    \
	DECQ R12                           \
	CMOVLEQ 12(BX), R14                \
	CMOVLEQ AX, R13                    \
	CMOVQEQ rowWords+24(FP), R12

// ROWS_SYNC points the row vectors at the walk's position: the local row
// = R13, Z10 = R14 + {0..15}.
#define ROWS_SYNC                              \
	MOVL R13, row-20(SP)                       \
	VPBROADCASTD R14, Z10                      \
	VPADDD ·philoxLaneIota(SB), Z10, Z10

// ROWS_CTR16(c2, c3, split, done) sets a sixteen-block state's counter
// vectors to the walk's next two words and steps the walk past them; split
// and done name the macro's labels. When both words lie in the current row
// (R12 >= 2), which is every state of a row of even width, c2 and c3 come
// from the row vectors, which then advance by two words: a broadcast load
// and two vector moves, no more than a running counter. Otherwise (R12 ==
// 1) the two words sit in two rows and each eight-lane half takes its own
// (c2, c3) from the walk, the high half merged under K2 (Z11 = {0..7,
// 0..7}). The row vectors are kept in step only while the next state can
// use them (R12 >= 2), so a run of one-word rows never touches them.
#define ROWS_CTR16(c2, c3, split, done) \
	CMPQ R12, $2                        \
	JCS split                           \
	VPBROADCASTD row-20(SP), c2         \
	VMOVDQA32 Z10, c3                   \
	VPADDD Z26, Z10, Z10                \
	ADDL $16, R14                       \
	SUBQ $2, R12                        \
	JNZ done                            \
	MOVL 12(BX), R14                    \
	INCL R13                            \
	MOVQ rowWords+24(FP), R12           \
	ROWS_SYNC                           \
	JMP done                            \
split:                                  \
	VPBROADCASTD R13, c2                \
	VPBROADCASTD R14, c3                \
	ROWS_WALK_STEP                      \
	VPBROADCASTD R13, K2, c2            \
	VPBROADCASTD R14, K2, c3            \
	VPADDD Z11, c3, c3                  \
	ROWS_WALK_STEP                      \
	CMPQ R12, $2                        \
	JCS done                            \
	ROWS_SYNC                           \
done:

// ROW_THRESHOLD splits a threshold t (clobbered) into its low word and the
// 64-bit force mask, all ones when t >= 2^32 (NEGQ sets the carry exactly
// when t>>32 is not zero); the kernel then keeps its even bits.
#define ROW_THRESHOLD(t, low, force) \
	MOVL t, low                      \
	SHRQ $32, t                      \
	NEGQ t                           \
	SBBQ force, force

// ROW_BITS sets AX to the compact accept bits of the state c0..c3 (block
// b in lane b) against the broadcast threshold t: bit 4b+c is component c
// of block b below t (VPCMPUD predicate 1: unsigned less than), placed by
// the PDEPQ mask 0x1111...<<c in R8..R11. It clobbers CX and K3.
#define ROW_BITS(c0, c1, c2, c3, t) \
	VPCMPUD $1, t, c0, K3           \
	KMOVW K3, AX                    \
	PDEPQ R8, AX, AX                \
	VPCMPUD $1, t, c1, K3           \
	KMOVW K3, CX                    \
	PDEPQ R9, CX, CX                \
	ORQ CX, AX                      \
	VPCMPUD $1, t, c2, K3           \
	KMOVW K3, CX                    \
	PDEPQ R10, CX, CX               \
	ORQ CX, AX                      \
	VPCMPUD $1, t, c3, K3           \
	KMOVW K3, CX                    \
	PDEPQ R11, CX, CX               \
	ORQ CX, AX

// ROW_WORD stores the word-aligned mask of the compact bits in AX's low 32
// bits, OR force, at dst: bit j moves to 2j. It clobbers CX.
#define ROW_WORD(force, dst)                     \
	PDEPQ ·philoxEvenBits(SB), AX, CX            \
	ORQ force, CX                                \
	MOVQ CX, dst

// ROW_ACCEPT16 stores the two words' accept masks of the zmm state c0..c3
// under each threshold and advances DI and SI.
#define ROW_ACCEPT16(c0, c1, c2, c3)  \
	ROW_BITS(c0, c1, c2, c3, Z20)     \
	ROW_WORD(force4-8(SP), (DI))      \
	SHRQ $32, AX                      \
	ROW_WORD(force4-8(SP), 8(DI))     \
	ROW_BITS(c0, c1, c2, c3, Z21)     \
	ROW_WORD(force8-16(SP), (SI))     \
	SHRQ $32, AX                      \
	ROW_WORD(force8-16(SP), 8(SI))    \
	ADDQ $16, DI                      \
	ADDQ $16, SI

// LANE_STATE(c0, c1, c2, c3, k0, k1, off) starts a state at the counter
// words of (BX) under the lane keys at off(R8)/off(R9).
#define LANE_STATE(c0, c1, c2, c3, k0, k1, off) \
	VPBROADCASTD 0(BX), c0                      \
	VPBROADCASTD 4(BX), c1                      \
	VPBROADCASTD 8(BX), c2                      \
	VPBROADCASTD 12(BX), c3                     \
	VMOVDQU32 off(R8), k0                       \
	VMOVDQU32 off(R9), k1

// LANE_THRESHOLDS loads the uint64 thresholds at src into q (ymm: four,
// zmm: eight), their low words saturated to 2^32-1 into t (xmm or ymm) and
// the lanes whose threshold is 2^32 or more into force.
#define LANE_THRESHOLDS(src, q, t, force)             \
	VMOVDQU64 src, q                                  \
	VPMOVUSQD q, t                                    \
	VPTESTMQ.BCST ·philoxHighWord(SB), q, force

// LANE_THRESHOLDS16 loads sixteen thresholds at (src) into Z24 and their
// force mask into K3, clobbering Z22, Y23 and K4; LANE_THRESHOLDS8 loads
// eight into Y24 and K3 with ymm instructions only, clobbering Y22, X23 and
// K4.
#define LANE_THRESHOLDS16(src)                    \
	LANE_THRESHOLDS((src), Z22, Y24, K3)          \
	LANE_THRESHOLDS(64(src), Z22, Y23, K4)        \
	VINSERTI64X4 $1, Y23, Z24, Z24                \
	KUNPCKBW K3, K4, K3

#define LANE_THRESHOLDS8(src)                     \
	LANE_THRESHOLDS((src), Y22, X24, K3)          \
	LANE_THRESHOLDS(32(src), Y22, X23, K4)        \
	VINSERTI32X4 $1, X23, Y24, Y24                \
	KSHIFTLW $4, K4, K4                           \
	KORW K4, K3, K3

// LANE_MASKS compares component c of the state c0..c3 (lane l in lane l)
// against t, ORs the force mask K3 and stores the lane bits with the move
// store at the c-th uint64 of (dst). It clobbers K4 and AX.
#define LANE_MASKS(c0, c1, c2, c3, t, store, dst) \
	VPCMPUD $1, t, c0, K4                         \
	KORW K3, K4, K4                               \
	KMOVW K4, AX                                  \
	store AX, (dst)                               \
	VPCMPUD $1, t, c1, K4                         \
	KORW K3, K4, K4                               \
	KMOVW K4, AX                                  \
	store AX, 8(dst)                              \
	VPCMPUD $1, t, c2, K4                         \
	KORW K3, K4, K4                               \
	KMOVW K4, AX                                  \
	store AX, 16(dst)                             \
	VPCMPUD $1, t, c3, K4                         \
	KORW K3, K4, K4                               \
	KMOVW K4, AX                                  \
	store AX, 24(dst)

// LANE_ACCEPT16 stores the next sixteen lanes' masks of the zmm state
// c0..c3 under the thresholds at (R10)/(R11) and advances DI, SI, R10 and
// R11.
#define LANE_ACCEPT16(c0, c1, c2, c3)              \
	LANE_THRESHOLDS16(R10)                         \
	LANE_MASKS(c0, c1, c2, c3, Z24, MOVW, DI)      \
	LANE_THRESHOLDS16(R11)                         \
	LANE_MASKS(c0, c1, c2, c3, Z24, MOVW, SI)      \
	ADDQ $2, DI                                    \
	ADDQ $2, SI                                    \
	ADDQ $128, R10                                 \
	ADDQ $128, R11

// func acceptRowsAVX512(a4, a8 *uint64, n, rowWords uint64, ctr Counter, key Key, t4, t8 uint64)
TEXT ·acceptRowsAVX512(SB), NOSPLIT, $24-72
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ ctr+32(FP), BX
	MOVQ t4+56(FP), AX
	ROW_THRESHOLD(AX, R8, R10)
	MOVQ t8+64(FP), AX
	ROW_THRESHOLD(AX, R9, R11)
	VPBROADCASTD R8, Y20
	VPBROADCASTD R9, Y21
	ANDQ ·philoxEvenBits(SB), R10
	ANDQ ·philoxEvenBits(SB), R11
	MOVQ R10, force4-8(SP)
	MOVQ R11, force8-16(SP)
	MOVQ $0x1111111111111111, R8
	LEAQ (R8)(R8*1), R9
	LEAQ (R8*4), R10
	LEAQ (R8*8), R11
	ODD_LANES

	// The walk starts at word 0 of row 0: R13 = ctr[2], R14 = ctr[3],
	// R12 = rowWords words left in the row.
	MOVL 8(BX), R13
	MOVL 12(BX), R14
	MOVQ rowWords+24(FP), R12

	// A one-word call runs the ymm state alone and must not touch a zmm
	// register: one 512-bit instruction in its setup made it about 30%
	// slower than the AVX2 kernel.
	CMPQ DX, $2
	JCS acceptrow8

	VPBROADCASTD X20, Z20
	VPBROADCASTD X21, Z21
	VBROADCASTI64X4 ·philoxLaneIota(SB), Z11
	MOVL $16, AX
	VPBROADCASTD AX, Z26
	MOVL $0xFF00, AX
	KMOVW AX, K2
	ROWS_SYNC

	// DX counts the words left minus four; its low two bits stay n's.
	SUBQ $4, DX
	JCS acceptrow16

acceptrowpair:
	ROW_STATE(Z0, Z1, Z8, Z9)
	ROWS_CTR16(Z2, Z3, pairasplit, pairadone)
	VMOVDQA32 Z0, Z4
	VMOVDQA32 Z1, Z5
	ROWS_CTR16(Z6, Z7, pairbsplit, pairbdone)
	MOVQ $5, CX
acceptrowpairround:
	PHILOX_ROUND512(Z0, Z1, Z2, Z3, Z8, Z9, Z12, Z13, Z14, Z15)
	PHILOX_ROUND512(Z4, Z5, Z6, Z7, Z8, Z9, Z16, Z17, Z18, Z19)
	PHILOX_NEXT_KEY512(Z8, Z9)
	PHILOX_ROUND512(Z0, Z12, Z2, Z14, Z8, Z9, Z1, Z13, Z3, Z15)
	PHILOX_ROUND512(Z4, Z16, Z6, Z18, Z8, Z9, Z5, Z17, Z7, Z19)
	PHILOX_NEXT_KEY512(Z8, Z9)
	DECQ CX
	JNZ acceptrowpairround
	ROW_ACCEPT16(Z0, Z1, Z2, Z3)
	ROW_ACCEPT16(Z4, Z5, Z6, Z7)
	SUBQ $4, DX
	JCC acceptrowpair

acceptrow16:
	TESTQ $2, DX
	JZ acceptrow8
	ROW_STATE(Z0, Z1, Z8, Z9)
	ROWS_CTR16(Z2, Z3, onesplit, onedone)
	MOVQ $5, CX
acceptrow16round:
	PHILOX_ROUNDS2(Z0, Z1, Z2, Z3, Z8, Z9, Z12, Z13, Z14, Z15)
	DECQ CX
	JNZ acceptrow16round
	ROW_ACCEPT16(Z0, Z1, Z2, Z3)

acceptrow8:
	TESTQ $1, DX
	JZ acceptrowdone
	ROW_STATE(Y0, Y1, Y8, Y9)
	VPBROADCASTD R13, Y2
	VPBROADCASTD R14, Y3
	VPADDD ·philoxLaneIota(SB), Y3, Y3
	MOVQ $5, CX
acceptrow8round:
	PHILOX_ROUNDS2(Y0, Y1, Y2, Y3, Y8, Y9, Y12, Y13, Y14, Y15)
	DECQ CX
	JNZ acceptrow8round
	ROW_BITS(Y0, Y1, Y2, Y3, Y20)
	ROW_WORD(force4-8(SP), (DI))
	ROW_BITS(Y0, Y1, Y2, Y3, Y21)
	ROW_WORD(force8-16(SP), (SI))

acceptrowdone:
	VZEROUPPER
	RET

// func acceptLanesAVX512(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
TEXT ·acceptLanesAVX512(SB), NOSPLIT, $0-72
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	LEAQ ctr+24(FP), BX
	MOVQ k0s+40(FP), R8
	MOVQ k1s+48(FP), R9
	MOVQ t4s+56(FP), R10
	MOVQ t8s+64(FP), R11
	ODD_LANES

	// DX counts the lanes left minus 32; its low five bits stay n's.
	SUBQ $32, DX
	JCS acceptlane16

acceptlanepair:
	LANE_STATE(Z0, Z1, Z2, Z3, Z8, Z9, 0)
	LANE_STATE(Z4, Z5, Z6, Z7, Z10, Z11, 64)
	MOVQ $5, CX
acceptlanepairround:
	PHILOX_ROUND512(Z0, Z1, Z2, Z3, Z8, Z9, Z12, Z13, Z14, Z15)
	PHILOX_ROUND512(Z4, Z5, Z6, Z7, Z10, Z11, Z16, Z17, Z18, Z19)
	PHILOX_NEXT_KEY512(Z8, Z9)
	PHILOX_NEXT_KEY512(Z10, Z11)
	PHILOX_ROUND512(Z0, Z12, Z2, Z14, Z8, Z9, Z1, Z13, Z3, Z15)
	PHILOX_ROUND512(Z4, Z16, Z6, Z18, Z10, Z11, Z5, Z17, Z7, Z19)
	PHILOX_NEXT_KEY512(Z8, Z9)
	PHILOX_NEXT_KEY512(Z10, Z11)
	DECQ CX
	JNZ acceptlanepairround
	LANE_ACCEPT16(Z0, Z1, Z2, Z3)
	LANE_ACCEPT16(Z4, Z5, Z6, Z7)
	ADDQ $128, R8
	ADDQ $128, R9
	SUBQ $32, DX
	JCC acceptlanepair

acceptlane16:
	TESTQ $16, DX
	JZ acceptlane8
	LANE_STATE(Z0, Z1, Z2, Z3, Z8, Z9, 0)
	MOVQ $5, CX
acceptlane16round:
	PHILOX_ROUNDS2(Z0, Z1, Z2, Z3, Z8, Z9, Z12, Z13, Z14, Z15)
	DECQ CX
	JNZ acceptlane16round
	LANE_ACCEPT16(Z0, Z1, Z2, Z3)
	ADDQ $64, R8
	ADDQ $64, R9

acceptlane8:
	TESTQ $8, DX
	JZ acceptlanedone
	LANE_STATE(Y0, Y1, Y2, Y3, Y8, Y9, 0)
	MOVQ $5, CX
acceptlane8round:
	PHILOX_ROUNDS2(Y0, Y1, Y2, Y3, Y8, Y9, Y12, Y13, Y14, Y15)
	DECQ CX
	JNZ acceptlane8round
	LANE_THRESHOLDS8(R10)
	LANE_MASKS(Y0, Y1, Y2, Y3, Y24, MOVB, DI)
	LANE_THRESHOLDS8(R11)
	LANE_MASKS(Y0, Y1, Y2, Y3, Y24, MOVB, SI)

acceptlanedone:
	VZEROUPPER
	RET
