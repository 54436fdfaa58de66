"""Independent oracles used by the tests.

Everything here works from first principles (pointwise Boolean
evaluation, exhaustive enumeration, brute-force correlation) so it shares
no code path with the recursive implementations it checks.
"""

from __future__ import annotations

import numpy as np

from rmrec.core import RIGHT_END, CodeParams, enumerate_paths


def popcount(arr: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr)
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    view = arr.astype(np.uint64).view(np.uint8).reshape(arr.shape + (8,))
    return table[view].sum(axis=-1).astype(np.uint64)


def generator_rows(params: CodeParams) -> np.ndarray:
    """(k, n) binary generator matrix in lexicographic path order.

    Row of a path evaluates its Boolean function at every position
    (x_1..x_m lexicographic, x_1 most significant): the product of the
    variables marked by the descent's zero steps, times, for right-end
    paths, the indicator that the last h coordinates equal the suffix.
    """
    m, n = params.m, params.n
    pos = np.arange(n)
    coord = [((pos >> (m - i)) & 1).astype(np.uint8) for i in range(1, m + 1)]
    rows = []
    for path in enumerate_paths(params):
        row = np.ones(n, dtype=np.uint8)
        for i, bit in enumerate(path.descent, start=1):
            if bit == 0:
                row &= coord[i - 1]
        if path.kind == RIGHT_END:
            h = path.end_size
            for t, bit in enumerate(path.bits[m - h:], start=m - h + 1):
                row &= (coord[t - 1] == bit).astype(np.uint8)
        rows.append(row)
    return np.array(rows)


def encode_oracle(info: np.ndarray, params: CodeParams) -> np.ndarray:
    """Encode by direct generator-matrix evaluation, in +/-1 symbols."""
    info = np.atleast_2d(np.asarray(info, dtype=np.uint8))
    binary = (info @ generator_rows(params)) & 1
    return (1 - 2 * binary.astype(np.int8))


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack (B, n) binary rows into integers, first column most significant."""
    n = rows.shape[1]
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
    return (rows.astype(np.uint64) @ weights).astype(np.uint64)


def packed_codebook(params: CodeParams) -> np.ndarray:
    """All 2^k codewords as packed integers via span doubling."""
    dtype = np.uint32 if params.n <= 32 else np.uint64
    base = pack_rows(generator_rows(params)).astype(dtype)
    book = np.zeros(1, dtype=dtype)
    for row in base:
        book = np.concatenate([book, book ^ row])
    return book


def brute_codebook(g: int) -> np.ndarray:
    """The 2l codewords of the length-2^(g+1) first-order code, from the
    defining signs (-1)^popcount(pattern & position): the two constants
    first, then +/- of each balanced pattern."""
    width = 1 << (g + 1)
    rows = []
    for pattern in range(width):
        row = np.array([(-1.0) ** bin(pattern & pos).count("1")
                        for pos in range(width)])
        rows.append(row)
        rows.append(-row)
    return np.array(rows)


def butterfly_fht(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis by the in-place
    butterfly: log2(w) stages of (a, b) -> (a + b, a - b) over pairs h apart."""
    out = np.array(x, dtype=np.float64, order="C")
    width = out.shape[-1]
    h = 1
    while h < width:
        pairs = out.reshape(out.shape[:-1] + (width // (2 * h), 2, h))
        a, b = pairs[..., 0, :], pairs[..., 1, :]
        pairs[..., 0, :], pairs[..., 1, :] = a + b, a - b
        h *= 2
    return out


def md_oracle(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Brute-force MD decoding: first codeword maximizing the inner product."""
    return codebook[int(np.argmax(codebook @ z))]


# counted operations per symbol pair: y'y'' is one product;
# sign(y'y'') min(|y'|, |y''|) a product, a comparison and a sign;
# (y' + y''v)/2 a product, a sum and a halving, and unscaled no halving
_PAIR_OPS = {"product": 1, "min-sum": 3, "scaled": 3, "unscaled": 2}


def op_count_oracle(m: int, r: int, phi: bool, u_rule: str, v_rule: str) -> int:
    """Counted operations of one recursive decode of {m, r}, by the per-node
    rule: (v + u) w/2 at a split node of width w, w log2(w) + 2w at a
    first-order node {L, 1}, L >= 2 (phi only: its FHT, w magnitudes, w - 1
    comparisons and one sign), and w at a repetition or full-space node."""
    width = 1 << m
    if r in (0, m):
        return width
    if phi and r == 1:
        return width * m + 2 * width
    return ((_PAIR_OPS[v_rule] + _PAIR_OPS[u_rule]) * width // 2
            + op_count_oracle(m - 1, r - 1, phi, u_rule, v_rule)
            + op_count_oracle(m - 1, r, phi, u_rule, v_rule))
