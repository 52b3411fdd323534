"""Reusable µRISC kernels for the synthetic Mediabench stand-ins.

Each kernel emits one loop nest into a :class:`ProgramBuilder`.  They are
the building blocks real media code is made of: filters, block
transforms, quantizers, entropy-coder scans, color conversions, motion
search, fp texture/vertex math, modular-arithmetic crypto rounds and
ADPCM step logic.  :func:`frame_loop` wraps a stand-in's kernel
pipeline in the outer frame loop that every stand-in shares.

Register convention (documented contract, enforced by code review and
the kernel unit tests):

* kernels may clobber ``r8``–``r31`` and ``f8``–``f31``;
* benchmark outer-loop state lives in ``r1``–``r7`` / ``f1``–``f7`` and
  is never touched by kernels;
* every label a kernel defines is prefixed with its ``tag`` argument,
  so a kernel can be instantiated any number of times per program.

All array arguments are *addresses* (as returned by
``ProgramBuilder.data``); element sizes are 4 bytes for integer data and
8 bytes for fp data.
"""

from __future__ import annotations

from typing import Callable

from ..isa.program import Program, ProgramBuilder

__all__ = [
    "FRAMES", "frame_loop", "fir_filter", "iir_biquad", "dct8_blocks",
    "quantize", "dequantize", "huffman_scan", "color_convert",
    "sad_motion", "memcpy_words", "histogram", "bitunpack",
    "modmul_rounds", "adpcm_decode", "texture_lerp", "vertex_transform",
    "fp_poly_eval",
]


#: Frames the outer loop counts to: effectively unbounded, so the
#: executor's instruction cap ends every run.
FRAMES = 1_000_000


def frame_loop(b: ProgramBuilder, replicas: int,
               pipeline: Callable[[int], None]) -> Program:
    """Wrap *replicas* instantiations of a stand-in's kernel pipeline in
    its outer frame loop and return the built program.

    ``pipeline(rep)`` emits instantiation *rep*.  The loop counts frames
    in ``r1`` against ``r2`` (:data:`FRAMES`) and branches back to the
    code label ``main``.
    """
    b.emit("li", "r1", 0)
    b.emit("li", "r2", FRAMES)
    b.label("main")
    for rep in range(replicas):
        pipeline(rep)
    b.emit("addi", "r1", "r1", 1)
    b.emit("blt", "r1", "r2", "main")
    b.emit("halt")
    return b.build()


def fir_filter(b: ProgramBuilder, tag: str, src: int, coef: int, dst: int,
               n: int, taps: int) -> None:
    """``dst[i] = sum_j src[i+j] * coef[j]`` — the canonical audio kernel.

    Emitted the way an optimizing compiler (the paper used Compaq cc
    -O4) emits a short-order FIR: the loop-invariant coefficients are
    hoisted into registers before the sample loop and the tap loop is
    fully unrolled.  Register-resident loop invariants are the classic
    value-prediction win: any remote read of them is a stride-0,
    always-correct prediction, so the wire crossing vanishes (§2.2).

    ``taps`` may be at most 8 (the register budget r24..r31).
    """
    if not 1 <= taps <= 8:
        raise ValueError("fir_filter supports 1..8 register-resident taps")
    # Hoist the coefficients.
    b.emit("li", "r11", coef)
    for j in range(taps):
        b.emit("lw", f"r{24 + j}", "r11", 4 * j)
    b.emit("li", "r8", 0)          # i
    b.emit("li", "r9", src)        # &src[i]
    b.emit("li", "r16", dst)       # &dst[i]
    b.emit("li", "r19", n)
    b.label(f"{tag}_i")
    # Unrolled multiply-accumulate tree over the tap registers.
    b.emit("lw", "r12", "r9", 0)
    b.emit("mul", "r10", "r12", "r24")
    for j in range(1, taps):
        b.emit("lw", "r12", "r9", 4 * j)
        b.emit("mul", "r13", "r12", f"r{24 + j}")
        b.emit("add", "r10", "r10", "r13")
    b.emit("srai", "r10", "r10", 6)
    b.emit("sw", "r10", "r16", 0)
    b.emit("addi", "r16", "r16", 4)
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r19", f"{tag}_i")


def iir_biquad(b: ProgramBuilder, tag: str, src: int, dst: int,
               n: int, b0: int, b1: int, a1: int) -> None:
    """A first-order IIR section in fixed point — a *serial* recurrence.

    ``y = (b0*x + b1*x1 - a1*y1) >> 8`` with the state carried across
    iterations: the loop-carried dependence limits ILP, the way vocoder
    filters do.
    """
    b.emit("li", "r8", 0)          # i
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r11", 0)         # x1
    b.emit("li", "r12", 0)         # y1
    b.emit("li", "r20", b0)
    b.emit("li", "r21", b1)
    b.emit("li", "r22", a1)
    b.emit("li", "r23", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r13", "r9", 0)           # x
    b.emit("mul", "r14", "r13", "r20")
    b.emit("mul", "r15", "r11", "r21")
    b.emit("mul", "r16", "r12", "r22")
    b.emit("add", "r17", "r14", "r15")
    b.emit("sub", "r17", "r17", "r16")
    b.emit("srai", "r17", "r17", 8)        # y
    b.emit("sw", "r17", "r10", 0)
    b.emit("mov", "r11", "r13")            # x1 = x
    b.emit("mov", "r12", "r17")            # y1 = y
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r23", f"{tag}_loop")


def dct8_blocks(b: ProgramBuilder, tag: str, src: int, dst: int,
                nblocks: int) -> None:
    """8-point butterfly transform per block — the JPEG/MPEG workhorse.

    Wide, shallow dependence trees over eight loaded values: high ILP,
    block-strided addresses.
    """
    b.emit("li", "r8", 0)          # block index
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r28", 181)       # ~ sqrt(2)/2 in Q8
    b.emit("li", "r26", nblocks)
    b.label(f"{tag}_blk")
    b.emit("lw", "r11", "r9", 0)
    b.emit("lw", "r12", "r9", 4)
    b.emit("lw", "r13", "r9", 8)
    b.emit("lw", "r14", "r9", 12)
    b.emit("lw", "r15", "r9", 16)
    b.emit("lw", "r16", "r9", 20)
    b.emit("lw", "r17", "r9", 24)
    b.emit("lw", "r18", "r9", 28)
    # stage 1 butterflies
    b.emit("add", "r19", "r11", "r18")
    b.emit("sub", "r20", "r11", "r18")
    b.emit("add", "r21", "r12", "r17")
    b.emit("sub", "r22", "r12", "r17")
    b.emit("add", "r23", "r13", "r16")
    b.emit("sub", "r24", "r13", "r16")
    b.emit("add", "r25", "r14", "r15")
    b.emit("sub", "r27", "r14", "r15")
    # stage 2
    b.emit("add", "r11", "r19", "r25")
    b.emit("sub", "r12", "r19", "r25")
    b.emit("add", "r13", "r21", "r23")
    b.emit("sub", "r14", "r21", "r23")
    b.emit("mul", "r15", "r22", "r28")
    b.emit("srai", "r15", "r15", 8)
    b.emit("mul", "r16", "r24", "r28")
    b.emit("srai", "r16", "r16", 8)
    b.emit("add", "r17", "r20", "r15")
    b.emit("sub", "r18", "r20", "r15")
    # stage 3 + store
    b.emit("add", "r19", "r11", "r13")
    b.emit("sub", "r21", "r11", "r13")
    b.emit("add", "r23", "r17", "r16")
    b.emit("sub", "r25", "r17", "r16")
    b.emit("sw", "r19", "r10", 0)
    b.emit("sw", "r21", "r10", 4)
    b.emit("sw", "r23", "r10", 8)
    b.emit("sw", "r25", "r10", 12)
    b.emit("sw", "r12", "r10", 16)
    b.emit("sw", "r14", "r10", 20)
    b.emit("sw", "r18", "r10", 24)
    b.emit("sw", "r27", "r10", 28)
    b.emit("addi", "r9", "r9", 32)
    b.emit("addi", "r10", "r10", 32)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_blk")


def quantize(b: ProgramBuilder, tag: str, src: int, rtable: int, dst: int,
             n: int, qlen: int) -> None:
    """``dst[i] = src[i] * recip[i % qlen] >> 14`` — reciprocal quantize.

    Optimizing compilers (the paper used Compaq cc -O4) turn the JPEG
    quantizer's constant divides into reciprocal multiplies; *rtable*
    holds ``16384 // qstep`` entries.
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r13", rtable)
    b.emit("li", "r12", rtable + 4 * qlen)  # table end
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r14", "r9", 0)
    b.emit("lw", "r15", "r13", 0)
    b.emit("mul", "r16", "r14", "r15")
    b.emit("srai", "r16", "r16", 14)
    b.emit("sw", "r16", "r10", 0)
    b.emit("addi", "r13", "r13", 4)
    b.emit("blt", "r13", "r12", f"{tag}_nowrap")
    b.emit("li", "r13", rtable)
    b.label(f"{tag}_nowrap")
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def quantize_div(b: ProgramBuilder, tag: str, src: int, qtable: int,
                 dst: int, n: int, qlen: int) -> None:
    """``dst[i] = src[i] / q[i % qlen]`` with real (non-pipelined) divides.

    Used where the original code genuinely divides by variable steps
    (G.721's adaptive quantizer); the long-latency divides throttle the
    back end the way the real codec's do.
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r13", qtable)
    b.emit("li", "r12", qtable + 4 * qlen)
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r14", "r9", 0)
    b.emit("lw", "r15", "r13", 0)
    b.emit("div", "r16", "r14", "r15")
    b.emit("sw", "r16", "r10", 0)
    b.emit("addi", "r13", "r13", 4)
    b.emit("blt", "r13", "r12", f"{tag}_nowrap")
    b.emit("li", "r13", qtable)
    b.label(f"{tag}_nowrap")
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def dequantize(b: ProgramBuilder, tag: str, src: int, qtable: int, dst: int,
               n: int, qlen: int) -> None:
    """``dst[i] = src[i] * q[i % qlen]`` — the decode-side multiply."""
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r13", qtable)
    b.emit("li", "r12", qtable + 4 * qlen)
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r14", "r9", 0)
    b.emit("lw", "r15", "r13", 0)
    b.emit("mul", "r16", "r14", "r15")
    b.emit("sw", "r16", "r10", 0)
    b.emit("addi", "r13", "r13", 4)
    b.emit("blt", "r13", "r12", f"{tag}_nowrap")
    b.emit("li", "r13", qtable)
    b.label(f"{tag}_nowrap")
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def huffman_scan(b: ProgramBuilder, tag: str, src: int, hist: int,
                 n: int) -> None:
    """Entropy-coder style scan: magnitude-class branches + bit buffer.

    Data-dependent branches (hard for the branch predictor on random
    data) and a serial shift-or chain through the bit buffer, plus a
    histogram update with data-dependent addresses.
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r20", 0)          # bit buffer
    b.emit("li", "r21", 0)          # total bits
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r10", "r9", 0)
    # branchless |v| (Alpha-style cmov idiom), clamped to 10 bits
    b.emit("sub", "r11", "r0", "r10")
    b.emit("max", "r10", "r10", "r11")
    b.emit("li", "r11", 1023)
    b.emit("min", "r10", "r10", "r11")
    b.emit("li", "r11", 16)
    b.emit("blt", "r10", "r11", f"{tag}_c0")
    b.emit("li", "r11", 64)
    b.emit("blt", "r10", "r11", f"{tag}_c1")
    b.emit("li", "r11", 128)
    b.emit("blt", "r10", "r11", f"{tag}_c2")
    b.emit("li", "r12", 10)         # class 3: 10 bits
    b.emit("li", "r13", 3)
    b.emit("j", f"{tag}_emit")
    b.label(f"{tag}_c2")
    b.emit("li", "r12", 8)
    b.emit("li", "r13", 2)
    b.emit("j", f"{tag}_emit")
    b.label(f"{tag}_c1")
    b.emit("li", "r12", 6)
    b.emit("li", "r13", 1)
    b.emit("j", f"{tag}_emit")
    b.label(f"{tag}_c0")
    b.emit("li", "r12", 4)
    b.emit("li", "r13", 0)
    b.label(f"{tag}_emit")
    b.emit("sll", "r20", "r20", "r12")
    b.emit("or", "r20", "r20", "r13")
    b.emit("add", "r21", "r21", "r12")
    # histogram[class]++
    b.emit("slli", "r14", "r13", 2)
    b.emit("li", "r15", hist)
    b.emit("add", "r14", "r14", "r15")
    b.emit("lw", "r16", "r14", 0)
    b.emit("addi", "r16", "r16", 1)
    b.emit("sw", "r16", "r14", 0)
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def color_convert(b: ProgramBuilder, tag: str, src: int, dst: int,
                  npixels: int) -> None:
    """RGB -> luma conversion: three loads, constant multiplies, shift."""
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r20", 66)
    b.emit("li", "r21", 129)
    b.emit("li", "r22", 25)
    b.emit("li", "r26", npixels)
    b.label(f"{tag}_loop")
    b.emit("lw", "r11", "r9", 0)
    b.emit("lw", "r12", "r9", 4)
    b.emit("lw", "r13", "r9", 8)
    b.emit("mul", "r14", "r11", "r20")
    b.emit("mul", "r15", "r12", "r21")
    b.emit("mul", "r16", "r13", "r22")
    b.emit("add", "r17", "r14", "r15")
    b.emit("add", "r17", "r17", "r16")
    b.emit("addi", "r17", "r17", 4096)
    b.emit("srai", "r17", "r17", 8)
    b.emit("sw", "r17", "r10", 0)
    b.emit("addi", "r9", "r9", 12)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def sad_motion(b: ProgramBuilder, tag: str, ref: int, cur: int,
               n: int) -> None:
    """Sum-of-absolute-differences (branchless abs, early-out branch).

    The per-element abs uses the compiler's cmov idiom; a periodic
    early-out test every 16 elements keeps the data-dependent branch a
    real SAD search has.
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", ref)
    b.emit("li", "r10", cur)
    b.emit("li", "r11", 0)          # sad
    b.emit("li", "r25", 1 << 20)    # early-out threshold (never taken here)
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r12", "r9", 0)
    b.emit("lw", "r13", "r10", 0)
    b.emit("sub", "r14", "r12", "r13")
    b.emit("sub", "r15", "r13", "r12")
    b.emit("max", "r14", "r14", "r15")
    b.emit("add", "r11", "r11", "r14")
    b.emit("andi", "r16", "r8", 15)
    b.emit("bne", "r16", "r0", f"{tag}_noexit")
    b.emit("bge", "r11", "r25", f"{tag}_done")
    b.label(f"{tag}_noexit")
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")
    b.label(f"{tag}_done")


def memcpy_words(b: ProgramBuilder, tag: str, src: int, dst: int,
                 nwords: int) -> None:
    """Word copy, unrolled by two — pure streaming loads/stores."""
    pairs = nwords // 2
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r26", pairs)
    b.label(f"{tag}_loop")
    b.emit("lw", "r11", "r9", 0)
    b.emit("lw", "r12", "r9", 4)
    b.emit("sw", "r11", "r10", 0)
    b.emit("sw", "r12", "r10", 4)
    b.emit("addi", "r9", "r9", 8)
    b.emit("addi", "r10", "r10", 8)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def histogram(b: ProgramBuilder, tag: str, src: int, hist: int, n: int,
              buckets: int = 64) -> None:
    """Bucket counting — data-dependent load/store addresses."""
    mask = buckets - 1
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r15", hist)
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r10", "r9", 0)
    b.emit("andi", "r11", "r10", mask)
    b.emit("slli", "r11", "r11", 2)
    b.emit("add", "r11", "r11", "r15")
    b.emit("lw", "r12", "r11", 0)
    b.emit("addi", "r12", "r12", 1)
    b.emit("sw", "r12", "r11", 0)
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def bitunpack(b: ProgramBuilder, tag: str, src: int, dst: int,
              nwords: int) -> None:
    """Unpack four 8-bit fields from each word — shift/mask ILP."""
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r26", nwords)
    b.label(f"{tag}_loop")
    b.emit("lw", "r11", "r9", 0)
    b.emit("andi", "r12", "r11", 255)
    b.emit("srli", "r13", "r11", 8)
    b.emit("andi", "r13", "r13", 255)
    b.emit("srli", "r14", "r11", 16)
    b.emit("andi", "r14", "r14", 255)
    b.emit("srli", "r15", "r11", 24)
    b.emit("andi", "r15", "r15", 255)
    b.emit("sw", "r12", "r10", 0)
    b.emit("sw", "r13", "r10", 4)
    b.emit("sw", "r14", "r10", 8)
    b.emit("sw", "r15", "r10", 12)
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 16)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def modmul_rounds(b: ProgramBuilder, tag: str, sbox: int, rounds: int,
                  seed: int, modulus: int, sbox_mask: int = 1023) -> None:
    """Crypto-style Montgomery-multiply rounds plus S-box lookups.

    Two interleaved residue streams (optimized bignum code keeps several
    limbs in flight), each a serial multiply/shift reduction chain with
    *unpredictable* values and data-dependent load addresses — the
    anti-stride workload (PGP stand-in).
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", seed)          # stream x
    b.emit("li", "r19", seed ^ 0x5A5A5A)  # stream y
    b.emit("li", "r20", 1103515245)   # multiplier a
    b.emit("li", "r21", 0x9E3779B9)   # n' (Montgomery magic)
    b.emit("li", "r22", modulus)
    b.emit("li", "r23", sbox)
    b.emit("li", "r24", 0)            # digest
    b.emit("li", "r25", 0xFFFF)
    b.emit("li", "r26", rounds)
    b.label(f"{tag}_loop")
    # stream x: t = (x * n') & 0xffff; x = (x*a + t*m) >> 16
    b.emit("mul", "r10", "r9", "r20")
    b.emit("mul", "r11", "r9", "r21")
    b.emit("and", "r11", "r11", "r25")
    b.emit("mul", "r11", "r11", "r22")
    b.emit("add", "r10", "r10", "r11")
    b.emit("srai", "r9", "r10", 16)
    # stream y, same recurrence, independent
    b.emit("mul", "r12", "r19", "r20")
    b.emit("mul", "r13", "r19", "r21")
    b.emit("and", "r13", "r13", "r25")
    b.emit("mul", "r13", "r13", "r22")
    b.emit("add", "r12", "r12", "r13")
    b.emit("srai", "r19", "r12", 16)
    # S-box mix with data-dependent addresses
    b.emit("andi", "r14", "r9", sbox_mask)
    b.emit("slli", "r14", "r14", 2)
    b.emit("add", "r14", "r14", "r23")
    b.emit("lw", "r15", "r14", 0)
    b.emit("xor", "r24", "r24", "r15")
    b.emit("xor", "r9", "r9", "r19")
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def adpcm_decode(b: ProgramBuilder, tag: str, codes: int, steps: int,
                 dst: int, n: int, nsteps: int = 89) -> None:
    """ADPCM decode: step-table walk with clamping — serial and branchy.

    The real ``rawcaudio`` benchmark is exactly this loop.
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", codes)
    b.emit("li", "r10", dst)
    b.emit("li", "r11", 0)          # predicted value
    b.emit("li", "r12", 0)          # step index
    b.emit("li", "r22", steps)
    b.emit("li", "r23", nsteps - 1)
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("lw", "r13", "r9", 0)            # 4-bit code
    b.emit("andi", "r13", "r13", 15)
    # step = steps[index]
    b.emit("slli", "r14", "r12", 2)
    b.emit("add", "r14", "r14", "r22")
    b.emit("lw", "r15", "r14", 0)
    # diff = step * (code & 7) / 4 + step/8
    b.emit("andi", "r16", "r13", 7)
    b.emit("mul", "r17", "r15", "r16")
    b.emit("srai", "r17", "r17", 2)
    b.emit("srai", "r18", "r15", 3)
    b.emit("add", "r17", "r17", "r18")
    # sign bit
    b.emit("andi", "r19", "r13", 8)
    b.emit("beq", "r19", "r0", f"{tag}_plus")
    b.emit("sub", "r11", "r11", "r17")
    b.emit("j", f"{tag}_upd")
    b.label(f"{tag}_plus")
    b.emit("add", "r11", "r11", "r17")
    b.label(f"{tag}_upd")
    # clamp predicted value to 16 bits
    b.emit("li", "r20", 32767)
    b.emit("min", "r11", "r11", "r20")
    b.emit("li", "r20", -32768)
    b.emit("max", "r11", "r11", "r20")
    # index += indexdelta(code); clamp to [0, nsteps)
    b.emit("andi", "r21", "r13", 7)
    b.emit("addi", "r21", "r21", -3)
    b.emit("add", "r12", "r12", "r21")
    b.emit("max", "r12", "r12", "r0")
    b.emit("min", "r12", "r12", "r23")
    b.emit("sw", "r11", "r10", 0)
    b.emit("addi", "r9", "r9", 4)
    b.emit("addi", "r10", "r10", 4)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def texture_lerp(b: ProgramBuilder, tag: str, texels: int, dst: int,
                 n: int) -> None:
    """Bilinear texture filtering — fp multiplies and adds (3D kernels).

    FP operands are never value-predicted, so this kernel forces real
    inter-cluster communications even under perfect prediction (§3.3).
    """
    b.emit("li", "r8", 0)
    b.emit("li", "r9", texels)
    b.emit("li", "r10", dst)
    b.emit("li", "r26", n)
    # weights drift a little every pixel
    b.emit("li", "r11", 3)
    b.emit("cvtif", "f8", "r11")
    b.emit("li", "r11", 13)
    b.emit("cvtif", "f9", "r11")
    b.emit("fdiv", "f8", "f8", "f9")       # w ~ 0.23
    b.emit("li", "r11", 1)
    b.emit("cvtif", "f10", "r11")
    b.emit("fsub", "f11", "f10", "f8")     # 1 - w
    b.label(f"{tag}_loop")
    b.emit("flw", "f12", "r9", 0)
    b.emit("flw", "f13", "r9", 8)
    b.emit("flw", "f14", "r9", 16)
    b.emit("flw", "f15", "r9", 24)
    b.emit("fmul", "f16", "f12", "f8")
    b.emit("fmul", "f17", "f13", "f11")
    b.emit("fadd", "f16", "f16", "f17")
    b.emit("fmul", "f18", "f14", "f8")
    b.emit("fmul", "f19", "f15", "f11")
    b.emit("fadd", "f18", "f18", "f19")
    b.emit("fadd", "f20", "f16", "f18")
    b.emit("fsw", "f20", "r10", 0)
    b.emit("addi", "r9", "r9", 32)
    b.emit("addi", "r10", "r10", 8)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def vertex_transform(b: ProgramBuilder, tag: str, verts: int, matrix: int,
                     dst: int, n: int) -> None:
    """3x3 matrix * vertex — the geometry stage of the Mesa stand-ins."""
    # Load the matrix once (f16..f24).
    b.emit("li", "r11", matrix)
    for i in range(9):
        b.emit("flw", f"f{16 + i}", "r11", 8 * i)
    b.emit("li", "r8", 0)
    b.emit("li", "r9", verts)
    b.emit("li", "r10", dst)
    b.emit("li", "r26", n)
    b.label(f"{tag}_loop")
    b.emit("flw", "f8", "r9", 0)
    b.emit("flw", "f9", "r9", 8)
    b.emit("flw", "f10", "r9", 16)
    for row in range(3):
        m0, m1, m2 = 16 + 3 * row, 17 + 3 * row, 18 + 3 * row
        b.emit("fmul", "f11", "f8", f"f{m0}")
        b.emit("fmul", "f12", "f9", f"f{m1}")
        b.emit("fmul", "f13", "f10", f"f{m2}")
        b.emit("fadd", "f11", "f11", "f12")
        b.emit("fadd", "f11", "f11", "f13")
        b.emit("fsw", "f11", "r10", 8 * row)
    b.emit("addi", "r9", "r9", 24)
    b.emit("addi", "r10", "r10", 24)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")


def fp_poly_eval(b: ProgramBuilder, tag: str, src: int, dst: int,
                 n: int) -> None:
    """Horner polynomial over fp inputs — rasta's log/spectral math."""
    b.emit("li", "r8", 0)
    b.emit("li", "r9", src)
    b.emit("li", "r10", dst)
    b.emit("li", "r26", n)
    b.emit("li", "r11", 7)
    b.emit("cvtif", "f8", "r11")           # c3
    b.emit("li", "r11", -5)
    b.emit("cvtif", "f9", "r11")           # c2
    b.emit("li", "r11", 3)
    b.emit("cvtif", "f10", "r11")          # c1
    b.emit("li", "r11", 1)
    b.emit("cvtif", "f11", "r11")          # c0
    b.label(f"{tag}_loop")
    b.emit("flw", "f12", "r9", 0)
    b.emit("fmul", "f13", "f8", "f12")
    b.emit("fadd", "f13", "f13", "f9")
    b.emit("fmul", "f13", "f13", "f12")
    b.emit("fadd", "f13", "f13", "f10")
    b.emit("fmul", "f13", "f13", "f12")
    b.emit("fadd", "f13", "f13", "f11")
    b.emit("fsw", "f13", "r10", 0)
    b.emit("addi", "r9", "r9", 8)
    b.emit("addi", "r10", "r10", 8)
    b.emit("addi", "r8", "r8", 1)
    b.emit("blt", "r8", "r26", f"{tag}_loop")
