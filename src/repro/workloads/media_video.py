"""Video-category Mediabench stand-in: mpeg2enc.

MPEG-2 encoding is motion estimation (SAD over candidate blocks), the
8x8 transform, quantization, and entropy coding — all integer, wide-ILP
kernels with data-dependent branches in the search.
"""

from __future__ import annotations

from ..isa.program import Program, ProgramBuilder
from . import kernels
from .datagen import image_words

__all__ = ["build_mpeg2enc"]

#: Macroblock-pipeline instantiations (distinct static code).
REPLICAS = 6


def build_mpeg2enc(offset: int) -> Program:
    """Motion search -> transform -> quantize -> entropy scan."""
    b = ProgramBuilder()
    n = 64
    cur = b.data("cur", image_words(111 + offset, n + 32))
    ref = b.data("ref", image_words(112 + offset, n + 32))
    diff = b.zeros("diff", n)
    coef = b.zeros("coef", n)
    qcoef = b.zeros("qcoef", n)
    rtable = b.data("rtable", [16384 // ((i % 15) + 2)
                               for i in range(16)])
    hist = b.zeros("hist", 8)

    def pipeline(rep):
        # Three candidate motion vectors (offset the reference pointer).
        kernels.sad_motion(b, f"mv0_{rep}", ref, cur, n)
        kernels.sad_motion(b, f"mv1_{rep}", ref + 4, cur, n)
        kernels.sad_motion(b, f"mv2_{rep}", ref + 8, cur, n)
        kernels.dct8_blocks(b, f"dct{rep}", cur, coef, n // 8)
        kernels.quantize(b, f"qz{rep}", coef, rtable, qcoef, n, 16)
        kernels.huffman_scan(b, f"hf{rep}", qcoef, hist, n)
        kernels.memcpy_words(b, f"rec{rep}", qcoef, diff, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)
