"""3D-graphics Mediabench stand-ins: mesamipmap, mesaosdemo, mesatexgen.

The Mesa demos are floating-point heavy: vertex transforms and texture
filtering.  FP values are never value-predicted (§3.3), so these
programs keep real inter-cluster communications alive even under
perfect prediction — exactly the behaviour the paper's Figure 3 "perfect
predict" bars show.
"""

from __future__ import annotations

from ..isa.program import Program, ProgramBuilder
from . import kernels
from .datagen import float_noise, float_ramp, image_words, noise_words

__all__ = ["build_mesamipmap", "build_mesaosdemo", "build_mesatexgen"]

#: Batch-pipeline instantiations (distinct static code).
REPLICAS = 8


def build_mesamipmap(offset: int) -> Program:
    """Mipmap generation: box-filtered downsampling of texel quads."""
    b = ProgramBuilder()
    n = 48
    texels = b.data("texels", float_noise(121 + offset, 4 * n, scale=255.0),
                    elem_size=8)
    level1 = b.zeros("level1", n, elem_size=8)
    ipix = b.data("ipix", image_words(122 + offset, n))
    iout = b.zeros("iout", n)

    def pipeline(rep):   # one instantiation per mip level
        kernels.texture_lerp(b, f"box{rep}", texels, level1, n)
        kernels.color_convert(b, f"pack{rep}", ipix, iout, n // 3)
        kernels.memcpy_words(b, f"cp{rep}", ipix, iout, n // 2)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_mesaosdemo(offset: int) -> Program:
    """Off-screen rendering demo: geometry + span fill + texture."""
    b = ProgramBuilder()
    n = 32
    verts = b.data("verts", float_ramp(0.5, 3 * n, 0.37), elem_size=8)
    matrix = b.data("matrix", float_noise(131 + offset, 9, scale=2.0), elem_size=8)
    xformed = b.zeros("xformed", 3 * n, elem_size=8)
    texels = b.data("texels", float_noise(132 + offset, 4 * n, scale=255.0),
                    elem_size=8)
    shaded = b.zeros("shaded", n, elem_size=8)
    fb = b.zeros("fb", 2 * n)
    spans = b.data("spans", noise_words(133 + offset, 2 * n, bits=8))

    def pipeline(rep):   # one instantiation per primitive batch
        kernels.vertex_transform(b, f"xf{rep}", verts, matrix, xformed, n)
        kernels.texture_lerp(b, f"tx{rep}", texels, shaded, n)
        kernels.memcpy_words(b, f"span{rep}", spans, fb, 2 * n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_mesatexgen(offset: int) -> Program:
    """Texture-coordinate generation: transforms + fp polynomial + pack."""
    b = ProgramBuilder()
    n = 32
    verts = b.data("verts", float_noise(141 + offset, 3 * n + 3, scale=10.0),
                   elem_size=8)
    matrix = b.data("matrix", float_noise(142 + offset, 9, scale=1.5), elem_size=8)
    coords = b.zeros("coords", 3 * n, elem_size=8)
    warped = b.zeros("warped", n, elem_size=8)
    ipix = b.data("ipix", image_words(143 + offset, n))
    hist = b.zeros("hist", 64)

    def pipeline(rep):
        kernels.vertex_transform(b, f"tg{rep}", verts, matrix, coords, n)
        kernels.fp_poly_eval(b, f"wp{rep}", coords, warped, n)
        kernels.histogram(b, f"hg{rep}", ipix, hist, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)
