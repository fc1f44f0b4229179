#include "textflag.h"

// func accPairs16(idx []int32, val, blk []float64, acc *[16]float64)
//
// For each pair p in order: X8 = {val[p], val[p]}, then for each column pair
// q in 0..7: acc[2q:2q+2] += X8 * blk[16*idx[p]+2q : +2]. MULPD then ADDPD
// rounds twice per lane, exactly like the scalar MULSD/ADDSD. Uses X0–X14 and
// leaves X15 (the ABIInternal zero register) alone; SSE2 is the amd64 baseline,
// so no CPU detection is needed.
TEXT ·accPairs16(SB), NOSPLIT, $0-80
	MOVQ idx_base+0(FP), SI
	MOVQ idx_len+8(FP), CX
	MOVQ val_base+24(FP), DI
	MOVQ blk_base+48(FP), DX
	MOVQ acc+72(FP), AX
	MOVUPD 0(AX), X0
	MOVUPD 16(AX), X1
	MOVUPD 32(AX), X2
	MOVUPD 48(AX), X3
	MOVUPD 64(AX), X4
	MOVUPD 80(AX), X5
	MOVUPD 96(AX), X6
	MOVUPD 112(AX), X7
	TESTQ CX, CX
	JEQ done

loop:
	MOVLQSX (SI), BX
	SHLQ $7, BX // 16 columns × 8 bytes per k
	LEAQ (DX)(BX*1), BX
	MOVSD (DI), X8
	UNPCKLPD X8, X8
	MOVUPD 0(BX), X9
	MULPD X8, X9
	ADDPD X9, X0
	MOVUPD 16(BX), X10
	MULPD X8, X10
	ADDPD X10, X1
	MOVUPD 32(BX), X11
	MULPD X8, X11
	ADDPD X11, X2
	MOVUPD 48(BX), X12
	MULPD X8, X12
	ADDPD X12, X3
	MOVUPD 64(BX), X13
	MULPD X8, X13
	ADDPD X13, X4
	MOVUPD 80(BX), X14
	MULPD X8, X14
	ADDPD X14, X5
	MOVUPD 96(BX), X9
	MULPD X8, X9
	ADDPD X9, X6
	MOVUPD 112(BX), X10
	MULPD X8, X10
	ADDPD X10, X7
	ADDQ $4, SI
	ADDQ $8, DI
	DECQ CX
	JNE loop

done:
	MOVUPD X0, 0(AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	MOVUPD X4, 64(AX)
	MOVUPD X5, 80(AX)
	MOVUPD X6, 96(AX)
	MOVUPD X7, 112(AX)
	RET
