"""Encryption-category Mediabench stand-ins: pgpdec, pgpenc.

PGP spends its cycles in multi-precision modular arithmetic — long
serial multiply/divide chains over values with no exploitable stride,
the least value-predictable category in the suite (and in the paper,
where the predictor's hit rate is carried by the media codecs, not the
crypto).
"""

from __future__ import annotations

from ..isa.program import Program, ProgramBuilder
from . import kernels
from .datagen import noise_words

__all__ = ["build_pgpdec", "build_pgpenc"]

#: Block-pipeline instantiations (distinct static code).
REPLICAS = 8


def build_pgpenc(offset: int) -> Program:
    """Encrypt: modular exponentiation rounds + block scramble + entropy."""
    b = ProgramBuilder()
    n = 64
    sbox = b.data("sbox", noise_words(151 + offset, 1024, bits=32))
    plain = b.data("plain", noise_words(152 + offset, n, bits=16))
    packed = b.zeros("packed", n)
    hist = b.zeros("hist", 8)

    def pipeline(rep):
        kernels.modmul_rounds(b, f"rsa{rep}", sbox, 64,
                              0x1234567 + rep, 2147483647)
        kernels.histogram(b, f"mix{rep}", plain, packed, n)
        kernels.huffman_scan(b, f"arm{rep}", plain, hist, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_pgpdec(offset: int) -> Program:
    """Decrypt: modular rounds + bit unpacking of the armored stream."""
    b = ProgramBuilder()
    n = 64
    sbox = b.data("sbox", noise_words(161 + offset, 1024, bits=32))
    armored = b.data("armored", noise_words(162 + offset, n // 4 + 4, bits=31))
    fields = b.zeros("fields", n)
    out = b.zeros("out", n)

    def pipeline(rep):
        kernels.modmul_rounds(b, f"rsa{rep}", sbox, 64,
                              0x7654321 + rep, 2147481359)
        kernels.bitunpack(b, f"b64{rep}", armored, fields, n // 4)
        kernels.memcpy_words(b, f"out{rep}", fields, out, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)
