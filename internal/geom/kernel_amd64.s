//go:build amd64 && !purego

#include "textflag.h"

// func intersectBlocks(q *[4]float64, minx, miny, maxx, maxy *float64, n int) uint64
//
// Exact 4-wide closed-rectangle test. q holds the query as
// {MinX, MinY, MaxX, MaxY}; the planes hold the data rectangles. A lane's
// bit is set iff
//
//	minx[i] <= q.MaxX && q.MinX <= maxx[i] &&
//	miny[i] <= q.MaxY && q.MinY <= maxy[i]
//
// evaluated with VCMPPD predicate LE_OQ (0x12): quiet, ordered, so any
// NaN operand yields false — exactly the scalar semantics. n must be a
// positive multiple of 4, at most 64 (the caller covers the remainder
// lanes in Go).
TEXT ·intersectBlocks(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	VBROADCASTSD 0(AX), Y0  // q.MinX
	VBROADCASTSD 8(AX), Y1  // q.MinY
	VBROADCASTSD 16(AX), Y2 // q.MaxX
	VBROADCASTSD 24(AX), Y3 // q.MaxY
	MOVQ minx+8(FP), SI
	MOVQ miny+16(FP), DI
	MOVQ maxx+24(FP), R8
	MOVQ maxy+32(FP), R9
	MOVQ n+40(FP), R11
	XORQ BX, BX             // result word
	XORQ CX, CX             // lane index (CL doubles as the shift count)

loop:
	VMOVUPD (SI)(CX*8), Y4
	VCMPPD  $0x12, Y2, Y4, Y4 // minx <= q.MaxX
	VMOVUPD (R8)(CX*8), Y5
	VCMPPD  $0x12, Y5, Y0, Y5 // q.MinX <= maxx
	VANDPD  Y5, Y4, Y4
	VMOVUPD (DI)(CX*8), Y6
	VCMPPD  $0x12, Y3, Y6, Y6 // miny <= q.MaxY
	VMOVUPD (R9)(CX*8), Y7
	VCMPPD  $0x12, Y7, Y1, Y7 // q.MinY <= maxy
	VANDPD  Y7, Y6, Y6
	VANDPD  Y6, Y4, Y4
	VMOVMSKPD Y4, AX
	SHLQ    CL, AX            // CL = lane index, 0..60
	ORQ     AX, BX
	ADDQ    $4, CX
	CMPQ    CX, R11
	JLT     loop

	VZEROUPPER
	MOVQ BX, ret+48(FP)
	RET

// func sweepScan8(t *[3]float64, minx, miny, maxy *float64, n int, out *IndexPair, room int, base, mul uint64) (lanes, hits, brk int)
//
// The plane sweep's inner scan, eight lanes per step. t holds the sweep
// rect as {MaxX, MinY, MaxY}; the planes hold the other side from the
// scan's first lane. Per step it evaluates the scalar loop's two
// predicates on eight lanes:
//
//	in range: !(minx[i] > t.MaxX)                    VCMPPD NGT_UQ (0x1A)
//	hit:      miny[i] <= t.MaxY && t.MinY <= maxy[i] VCMPPD LE_OQ (0x12)
//
// NGT_UQ is true on an unordered compare, so a NaN minx (or a NaN t.MaxX)
// keeps scanning, exactly as the scalar `>` break does not fire. The lanes
// before the first out-of-range lane are compared; their hits are stored
// in lane order as the 8-byte pair base + lane*mul (mul is 1 or 1<<32, so
// the lane lands in the pair's R or S half). A step with an out-of-range
// lane ends the scan with brk = 1. Steps run while eight lanes remain
// (lanes+8 <= n) and eight output slots remain (hits+8 <= room), so no
// load reads past the planes' n lanes and no store past out's room.
TEXT ·sweepScan8(SB), NOSPLIT, $0-96
	MOVQ t+0(FP), AX
	VBROADCASTSD 0(AX), Y0  // t.MaxX
	VBROADCASTSD 8(AX), Y1  // t.MinY
	VBROADCASTSD 16(AX), Y2 // t.MaxY
	MOVQ minx+8(FP), SI
	MOVQ miny+16(FP), DI
	MOVQ maxy+24(FP), R8
	MOVQ n+32(FP), R9
	SUBQ $8, R9             // last lane a step may start at
	MOVQ out+40(FP), R10    // next output slot
	MOVQ room+48(FP), R11
	LEAQ -64(R10)(R11*8), R11 // last slot a step may start writing at
	MOVQ base+56(FP), R12   // pair value of lane CX
	MOVQ mul+64(FP), R13
	XORQ CX, CX             // lanes compared

step:
	CMPQ CX, R9
	JGT  done
	CMPQ R10, R11
	JHI  done

	VMOVUPD (SI)(CX*8), Y3
	VMOVUPD 32(SI)(CX*8), Y4
	VCMPPD  $0x1A, Y0, Y3, Y3 // !(minx > t.MaxX)
	VCMPPD  $0x1A, Y0, Y4, Y4
	VMOVMSKPD Y3, AX
	VMOVMSKPD Y4, BX
	SHLQ    $4, BX
	ORQ     BX, AX            // in-range mask, lane order

	VMOVUPD (DI)(CX*8), Y5
	VMOVUPD 32(DI)(CX*8), Y6
	VCMPPD  $0x12, Y2, Y5, Y5 // miny <= t.MaxY
	VCMPPD  $0x12, Y2, Y6, Y6
	VMOVUPD (R8)(CX*8), Y7
	VMOVUPD 32(R8)(CX*8), Y8
	VCMPPD  $0x12, Y7, Y1, Y7 // t.MinY <= maxy
	VCMPPD  $0x12, Y8, Y1, Y8
	VANDPD  Y7, Y5, Y5
	VANDPD  Y8, Y6, Y6
	VMOVMSKPD Y5, DX
	VMOVMSKPD Y6, BX
	SHLQ    $4, BX
	ORQ     BX, DX            // y-overlap mask, lane order

	// BX = the lanes before the first out-of-range lane: in & (in ^ (in+1)).
	LEAQ 1(AX), BX
	XORQ AX, BX
	ANDQ AX, BX
	ANDQ BX, DX               // the compared lanes' hits

hit:
	TESTQ DX, DX
	JZ    hitsdone
	BSFQ  DX, AX
	IMULQ R13, AX
	ADDQ  R12, AX
	MOVQ  AX, (R10)
	ADDQ  $8, R10
	LEAQ  -1(DX), AX
	ANDQ  AX, DX
	JMP   hit

hitsdone:
	CMPQ BX, $0xFF
	JNE  stop
	ADDQ $8, CX
	LEAQ (R12)(R13*8), R12
	JMP  step

stop:
	INCQ BX
	BSFQ BX, BX               // BX was 2^b - 1: b lanes compared
	ADDQ BX, CX
	MOVQ $1, DX
	JMP  exit

done:
	XORQ DX, DX

exit:
	VZEROUPPER
	MOVQ CX, lanes+72(FP)
	SUBQ out+40(FP), R10
	SHRQ $3, R10
	MOVQ R10, hits+80(FP)
	MOVQ DX, brk+88(FP)
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
