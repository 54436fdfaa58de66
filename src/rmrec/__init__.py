"""Recursive Reed-Muller coding: encoder, decoders, analysis, simulation."""

from .core import (
    LEFT_END,
    RIGHT_END,
    CodeParams,
    Path,
    classify_path,
    dimension,
    encode,
    encode_batch,
    encode_op_count,
    enumerate_paths,
)
from .decoder import (
    ALG_PHI,
    ALG_PSI,
    MIN_SUM,
    PRODUCT,
    SCALED,
    TIE_POSITIVE,
    TIE_RANDOM,
    UNSCALED,
    DecodeResult,
    DecoderOptions,
    codeword_to_info,
    decode_batch,
    decode_op_bound,
    decode_phi,
    decode_psi,
    hadamard_transform,
    md_biorthogonal,
)
from .simulate import (
    ALL_ONES,
    AWGN_HARD,
    BSC,
    RANDOM_CODEWORDS,
    Channel,
    GenieReport,
    SimConfig,
    SimReport,
    apply_channel,
    path_statistics,
    run_wer,
    sweep,
)

__version__ = "0.2.0"

__all__ = [
    "LEFT_END", "RIGHT_END", "CodeParams", "Path", "classify_path",
    "codeword_to_info", "dimension", "encode", "encode_batch",
    "encode_op_count", "enumerate_paths",
    "ALG_PHI", "ALG_PSI", "MIN_SUM", "PRODUCT", "SCALED", "TIE_POSITIVE",
    "TIE_RANDOM", "UNSCALED", "DecodeResult", "DecoderOptions",
    "decode_batch", "decode_op_bound", "decode_phi", "decode_psi",
    "hadamard_transform", "md_biorthogonal",
    "ALL_ONES", "AWGN_HARD", "BSC", "RANDOM_CODEWORDS", "Channel",
    "GenieReport", "SimConfig", "SimReport", "apply_channel", "path_statistics", "run_wer",
    "sweep",
    "__version__",
]
