"""Audio-category Mediabench stand-ins: g721enc, gsmdec, gsmenc,
rawcaudio, rasta.

The audio codecs are recurrence-heavy (ADPCM predictors, LPC lattices):
their stand-ins lean on the serial IIR and ADPCM kernels.  ``rasta``
adds floating-point spectral math.
"""

from __future__ import annotations

from ..isa.program import Program, ProgramBuilder
from . import kernels
from .datagen import audio_words, float_noise, noise_words, ramp_words

__all__ = ["build_g721enc", "build_gsmdec", "build_gsmenc",
           "build_rawcaudio", "build_rasta", "REPLICAS"]

#: Pipeline instantiations per benchmark (distinct static code).
REPLICAS = 8

#: The IMA ADPCM step table prefix (the real rawcaudio table, truncated
#: to what the kernel indexes).
_STEP_TABLE = [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28,
               31, 34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107,
               118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
               337, 371, 408, 449, 494, 544, 598, 658, 724, 796, 876,
               963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
               2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
               5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635,
               13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
               29794, 32767]



def build_g721enc(offset: int) -> Program:
    """G.721 ADPCM encode: adaptive predictor + quantizer — very serial."""
    b = ProgramBuilder()
    n = 80
    samples = b.data("samples", audio_words(505 + offset, n))
    filt = b.zeros("filt", n)
    codes = b.zeros("codes", n)
    steps = b.data("steps", _STEP_TABLE)
    qtable = b.data("qtable", [(i % 7) + 2 for i in range(16)])

    def pipeline(rep):
        kernels.iir_biquad(b, f"pred{rep}", samples, filt, n, 25, -11, 9)
        kernels.quantize_div(b, f"qz{rep}", filt, qtable, codes, n, 16)
        kernels.adpcm_decode(b, f"fb{rep}", codes, steps, filt, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_gsmdec(offset: int) -> Program:
    """GSM full-rate decode: bit unpack -> LTP filter -> synthesis."""
    b = ProgramBuilder()
    n = 80
    packed = b.data("packed", noise_words(606 + offset, n // 4 + 4, bits=31))
    params = b.zeros("params", n)
    excite = b.zeros("excite", n)
    speech = b.zeros("speech", n)
    taps = b.data("taps", [14, -28, 52, 88, 120, 88, 52, -28,
                           14, 6, -3, 2, -1, 1, 1, 1])

    def pipeline(rep):   # GSM processes four subframes per frame
        kernels.bitunpack(b, f"bu{rep}", packed, params, n // 4)
        kernels.fir_filter(b, f"ltp{rep}", params, taps, excite, n - 8, 8)
        kernels.iir_biquad(b, f"syn{rep}", excite, speech, n - 8,
                           31, -17, 11)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_gsmenc(offset: int) -> Program:
    """GSM full-rate encode: LPC analysis + LTP search + quantize."""
    b = ProgramBuilder()
    n = 80
    speech = b.data("speech", audio_words(707 + offset, n + 16))
    past = b.data("past", audio_words(708 + offset, n + 16))
    resid = b.zeros("resid", n)
    codes = b.zeros("codes", n)
    taps = b.data("taps", [40, -12, 9, -4, 3, -2, 1, 1,
                           -1, 1, -1, 1, -1, 1, -1, 1])
    rtable = b.data("rtable", [16384 // ((i % 5) + 2)
                               for i in range(16)])

    def pipeline(rep):
        kernels.fir_filter(b, f"lpc{rep}", speech, taps, resid, n, 8)
        kernels.sad_motion(b, f"ltp{rep}", past, speech, n)
        kernels.quantize(b, f"qz{rep}", resid, rtable, codes, n, 16)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_rawcaudio(offset: int) -> Program:
    """IMA ADPCM (the real rawcaudio inner loop) plus output buffering."""
    b = ProgramBuilder()
    n = 96
    codes = b.data("codes", noise_words(809 + offset, n, bits=4))
    pcm = b.zeros("pcm", n)
    out = b.zeros("out", n)
    steps = b.data("steps", _STEP_TABLE)

    def pipeline(rep):
        kernels.adpcm_decode(b, f"ad{rep}", codes, steps, pcm, n)
        kernels.memcpy_words(b, f"out{rep}", pcm, out, n)
    return kernels.frame_loop(b, REPLICAS, pipeline)


def build_rasta(offset: int) -> Program:
    """RASTA speech analysis: filterbank + fp spectral polynomial."""
    b = ProgramBuilder()
    n = 64
    samples = b.data("samples", audio_words(910 + offset, n + 16))
    band = b.zeros("band", n)
    spect = b.data("spect", float_noise(911 + offset, n, scale=4.0), elem_size=8)
    feat = b.zeros("feat", n, elem_size=8)
    smooth = b.zeros("smooth", n)
    taps = b.data("taps", ramp_words(-3, 8, 2))

    def pipeline(rep):   # one instantiation per critical band
        kernels.fir_filter(b, f"fb{rep}", samples, taps, band, n, 8)
        kernels.fp_poly_eval(b, f"log{rep}", spect, feat, n)
        kernels.iir_biquad(b, f"rst{rep}", band, smooth, n, 21, -9, 5)
    return kernels.frame_loop(b, REPLICAS, pipeline)
