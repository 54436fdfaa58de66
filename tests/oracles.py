"""Independent oracles used by the tests.

Everything here works from first principles (pointwise Boolean
evaluation, exhaustive enumeration, brute-force correlation, the closed
forms in exact rational arithmetic) so it shares no code path with the
recursive implementations it checks.  The one exception,
:func:`first_left_path`, looks a path up in the package's Plotkin tree;
the tests check the paths it returns against :func:`node_bits` and
against the variance recursion.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from rmrec.core import LEFT_END, RIGHT_END, CodeParams, Path, enumerate_paths, plotkin_tree


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


def op_bound_oracle(m: int, r: int, phi: bool, u_rule: str) -> int:
    """The closed-form ceiling on a decode's counted operations under the
    product v rule, from the per-pair costs above: with c = 1 + the u rule's
    pair cost, c n min(r, m-r) + n for psi and (c - 1) n min(r, m-r) +
    n (m - r + 1) for phi."""
    n, low = 1 << m, min(r, m - r)
    c = _PAIR_OPS["product"] + _PAIR_OPS[u_rule]
    return (c - 1) * n * low + n * (m - r + 1) if phi else c * n * low + n


# --- closed forms of the moment analysis -------------------------------------
# Exact where the formula is rational in epsilon (Fraction), otherwise in
# math.log/math.exp, which the tests compare with a stated tolerance.

def variance_along(bits: tuple[int, ...], epsilon: Fraction) -> Fraction:
    """Normalized variance after the steps `bits`, exactly: from
    epsilon^-2 - 1, a 0 step maps mu to (mu + 1)^2 - 1 and a 1 step to mu/2."""
    mu = epsilon ** -2 - 1
    for bit in bits:
        mu = (mu + 1) ** 2 - 1 if bit == 0 else mu / 2
    return mu


def weakest_bits(m: int, r: int) -> tuple[int, ...]:
    """The first path: r v steps, then m-r forced ones."""
    return (0,) * r + (1,) * (m - r)


def node_bits(m: int, r: int, g: int) -> tuple[int, ...]:
    """The first path through a repetition node {g, 0}: its last v step
    comes just before the g forced ones, the others as early as they can."""
    return (0,) * (r - 1) + (1,) * (m - r - g) + (0,) + (1,) * g


def phi_weakest_bits(m: int, r: int) -> tuple[int, ...]:
    """r-1 v steps to the first first-order node {m-r+1, 1}, then m-r ones
    for its half-block support sum."""
    return (0,) * (r - 1) + (1,) * (m - r)


def phi_node_bits(m: int, r: int, g: int) -> tuple[int, ...]:
    """The descent to the first first-order node {g+1, 1}, then g ones."""
    return (0,) * (r - 2) + (1,) * (m - r - g) + (0,) + (1,) * g


def first_left_path(params: CodeParams, g: int) -> Path:
    """The path of the first repetition node {g, 0} among the leaves of the
    code's Plotkin tree: the weakest path through such a node.  Raises
    ValueError where the tree has none."""
    for leaf in plotkin_tree(params.m, params.r).leaves:
        if leaf.kind == LEFT_END and leaf.length_log == g:
            return leaf.paths[0]
    raise ValueError(f"the tree of {params} has no {{{g},0}} node")


def _node_variance(m: int, r: int, epsilon: Fraction, level: int, g: int) -> Fraction:
    x = (epsilon ** -(2 ** level) - 1) * Fraction(2) ** (r + g - m)
    return ((x + 1) ** 2 - 1) / 2 ** g


def weakest_variance_oracle(m: int, r: int, epsilon: Fraction) -> Fraction:
    """2^-(m-r) (eps^-2^(r+1) - 1)."""
    return (epsilon ** -(2 ** (r + 1)) - 1) / 2 ** (m - r)


def node_variance_oracle(m: int, r: int, epsilon: Fraction, g: int) -> Fraction:
    """2^-g (((eps^-2^r - 1) 2^(r+g-m) + 1)^2 - 1)."""
    return _node_variance(m, r, epsilon, r, g)


def phi_weakest_variance_oracle(m: int, r: int, epsilon: Fraction) -> Fraction:
    """2^-(m-r) (eps^-2^r - 1)."""
    return (epsilon ** -(2 ** r) - 1) / 2 ** (m - r)


def phi_node_variance_oracle(m: int, r: int, epsilon: Fraction, g: int) -> Fraction:
    """The node form one level up: 2^-g (((eps^-2^(r-1) - 1) 2^(r+g-m) + 1)^2 - 1)."""
    return _node_variance(m, r, epsilon, r - 1, g)


def residual_psi_oracle(m: int, r: int) -> float:
    """((2 r ln m) / 2^(m-r))^(1/2^(r+1)), through logarithms."""
    return math.exp((math.log(2 * r) + math.log(math.log(m)) - (m - r) * math.log(2))
                    / 2 ** (r + 1))


def residual_phi_oracle(m: int, r: int, c: float) -> float:
    """(c m / 2^(m-r))^(1/2^r), through logarithms."""
    return math.exp((math.log(c * m) - (m - r) * math.log(2)) / 2 ** r)


def residual_optimal_oracle(m: int, r: int, c: float) -> float:
    """sqrt(c k / n), k the m-bit strings of weight >= m-r, counted one by one."""
    k = sum(1 for v in range(1 << m) if bin(v).count("1") >= m - r)
    return math.sqrt(float(Fraction(c) * k / 2 ** m))


def residual_majority_oracle(m: int, r: int, c: float) -> float:
    """(c m / 2^(m-r))^(1/2^(r+1)): phi's residual under one more square root."""
    return math.sqrt(residual_phi_oracle(m, r, c))


def residual_ml_oracle(m: int, r: int, c: float) -> float:
    """sqrt(c m^r (2^r - 1) / (r! 2^m)), its square exact."""
    return math.sqrt(float(Fraction(c) * m ** r * (2 ** r - 1)
                           / (math.factorial(r) * 2 ** m)))


def node_variance_asymptote_oracle(m: int, r: int, g: int) -> float | None:
    """Large-m asymptote of the node variance at the threshold residual
    residual_psi: 2^(r+g-m) / (2 r ln m) deep in the tree (g above
    (m-r)/2 + ln m), 2^-(m-r-2)/2 (2 r ln m)^-1/2 near the root (g below
    (m-r)/2 - ln m), and None between the two regimes."""
    mid, span = (m - r) / 2.0, math.log(m)
    if g > mid + span:
        return 2.0 ** (r + g - m) / (2.0 * r * math.log(m))
    if g < mid - span:
        return 2.0 ** (-(m - r - 2) / 2.0) / math.sqrt(2.0 * r * math.log(m))
    return None
