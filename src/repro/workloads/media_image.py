"""Image-category Mediabench stand-ins: cjpeg, djpeg, epicenc, epicdec.

Each builder returns a µRISC :class:`Program` whose dynamic stream mixes
the kernels the real benchmark spends its time in.  An outer frame loop
(:func:`~repro.workloads.kernels.frame_loop`) repeats the kernel
sequence; the functional executor's instruction cap sets the run length
(the paper ran Mediabench to completion; we run the same steady-state
loops, shorter).

Every stand-in instantiates its kernel pipeline :data:`REPLICAS` times
with distinct code (real codecs process multiple colour components /
subbands / subframes through separately inlined paths), so the static
footprint is Table-2-like — around a thousand instructions — and small
value-predictor tables alias realistically (Figure 5).
"""

from __future__ import annotations

from ..isa.program import Program, ProgramBuilder
from . import kernels
from .datagen import image_words, noise_words, ramp_words

__all__ = ["build_cjpeg", "build_djpeg", "build_epicenc", "build_epicdec",
           "REPLICAS"]

#: Pipeline instantiations per benchmark (distinct static code).
REPLICAS = 8


def build_cjpeg(offset: int) -> Program:
    """JPEG encode: color convert -> 8-pt transform -> quantize -> entropy."""
    b = ProgramBuilder()
    n = 64
    pixels = b.data("pixels", image_words(101 + offset, 3 * n))
    luma = b.zeros("luma", n)
    coef = b.zeros("coef", n)
    qcoef = b.zeros("qcoef", n)
    rtable = b.data("rtable", [16384 // ((i % 15) + 2)
                               for i in range(16)])
    hist = b.zeros("hist", 8)

    def pipeline(rep):
        kernels.color_convert(b, f"cc{rep}", pixels, luma, n)
        kernels.dct8_blocks(b, f"dct{rep}", luma, coef, n // 8)
        kernels.quantize(b, f"qz{rep}", coef, rtable, qcoef, n, 16)
        kernels.huffman_scan(b, f"hf{rep}", qcoef, hist, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_djpeg(offset: int) -> Program:
    """JPEG decode: entropy scan -> dequantize -> inverse transform -> copy."""
    b = ProgramBuilder()
    n = 64
    coded = b.data("coded", noise_words(202 + offset, n, bits=8))
    coef = b.zeros("coef", n)
    pix = b.zeros("pix", n)
    out = b.zeros("out", n)
    qtable = b.data("qtable", [(i % 13) + 2 for i in range(16)])
    hist = b.zeros("hist", 8)

    def pipeline(rep):
        kernels.huffman_scan(b, f"hf{rep}", coded, hist, n)
        kernels.dequantize(b, f"dq{rep}", coded, qtable, coef, n, 16)
        kernels.dct8_blocks(b, f"idct{rep}", coef, pix, n // 8)
        kernels.memcpy_words(b, f"out{rep}", pix, out, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_epicenc(offset: int) -> Program:
    """EPIC encode: wavelet-ish filter bank -> quantize -> entropy model."""
    b = ProgramBuilder()
    n = 64
    img = b.data("img", image_words(303 + offset, n + 24))
    lo = b.zeros("lo", n)
    hi = b.zeros("hi", n)
    q = b.zeros("q", n)
    taps = b.data("taps", [3, -9, 16, 38, 16, -9, 3, 1])
    rtable = b.data("rtable", [16384 // ((i % 11) + 3)
                               for i in range(16)])
    hist = b.zeros("hist", 64)

    def pipeline(rep):
        kernels.fir_filter(b, f"lo{rep}", img, taps, lo, n, 8)
        kernels.iir_biquad(b, f"hi{rep}", img, hi, n, 19, -13, 7)
        kernels.quantize(b, f"qz{rep}", lo, rtable, q, n, 16)
        kernels.histogram(b, f"hg{rep}", q, hist, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_epicdec(offset: int) -> Program:
    """EPIC decode: bit unpacking -> dequantize -> synthesis filter."""
    b = ProgramBuilder()
    n = 64
    packed = b.data("packed", noise_words(404 + offset, n // 4 + 4, bits=31))
    fields = b.zeros("fields", n)
    coef = b.zeros("coef", n)
    recon = b.zeros("recon", n)
    qtable = b.data("qtable", [(i % 9) + 2 for i in range(16)])
    taps = b.data("taps", ramp_words(1, 16))

    def pipeline(rep):
        kernels.bitunpack(b, f"bu{rep}", packed, fields, n // 4)
        kernels.dequantize(b, f"dq{rep}", fields, qtable, coef, n, 16)
        kernels.fir_filter(b, f"syn{rep}", coef, taps, recon, n - 8, 8)
    return kernels.frame_loop(b, REPLICAS, pipeline)
