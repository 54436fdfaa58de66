"""Recursive decoders over real-valued channel estimates.

Two successive-cancellation style algorithms share one recursion.  At a
node of length w the received block y = (y', y'') is first reduced to a
channel estimate y^v = y' * y'' for the v constituent; once v is decoded,
both halves are combined into an estimate of u, either as the midpoint
(y' + y''*v_hat)/2 (scaled rule, keeps values in [-1, +1]) or without the
halving (unscaled rule, same decisions, fewer operations).  The psi
variant recurses until repetition {g,0} and full-space {h,h} nodes, where
it applies exact minimum-distance decisions; the phi variant stops one
level earlier, decoding each first-order (biorthogonal) node {g+1,1} as a
whole with a fast Hadamard transform.

Both decoders walk the code's :func:`~rmrec.core.plotkin_tree` (phi's
stops at the first-order nodes).  The walks, the genie-aided recursion and
the public end-node helpers run the same kernels: the v step, the u step,
the sign with tie resolution, and the repetition and first-order
decisions.

Memory order: the walk slices the symbol axis of a symbol-first (n, B)
view, the transpose of the (B, n) batch a caller passes.  For a row-major
(C-ordered) batch every node works on B short row segments, as numpy lays
out each temporary like its inputs; for a symbol-major (F-ordered) batch,
an (n, B) C array underneath, every v step, u step, sign and re-assembly
runs on one contiguous (w/2, B) or (w, B) slab, which is much faster at
small widths.  Two kinds of step depend on the order of their additions
and read each trial's row instead: the repetition node's sum (numpy sums a
row pairwise; summed down a slab, a row of 8 or more reals rounds
differently) and the first-order node's FHT and argmax.  A row-major view
already has contiguous rows; a symbol-major slab is copied into rows
first.  The output is therefore bit-identical for any memory order of the
input, and comes back in the input's order.

First-order map: the FHT winner of a node {L, 1} is a pattern index
`best` in [0, 2^L) and a sign.  Its L+1 info bits, in the node's path
order, are the pattern bits (best >> (L-1)) & 1, ..., (best >> 1) & 1, one
per v step from the top, then the two symbols s and s ^ (best & 1) of the
closing {1, 1} node, where s is 1 when the sign is negative.  A read-only
table cached per width holds them for every winner: the decoder gathers
row 2*best + s.  The node's codeword, those bits encoded through the
{L, 1} Plotkin tree, is the sign times row `best` of the Hadamard matrix,
whose entry (j, i) is (-1)^popcount(i & j).  With w = a*b as in
:func:`hadamard_transform`, that row is the Kronecker product of row
best >> log2(b) of H_a and row best & (b - 1) of H_b; the decoder writes it
from the factors cached beside the table and walks no {L, 1} tree.  End
values, the winning correlation over w here and the block mean at a
repetition node, exist only for traces: an untraced decode does not
compute them.

Operation counting: every real addition, multiplication, comparison and
sign evaluation costs one unit.  A Hadamard butterfly stage costs two per
element pair.  Re-assembly of +/-1 code symbols (u*v products, info-bit
bookkeeping) is symbol manipulation, not channel arithmetic, and is not
counted.  The tree and the two rules fix every counted operation, so the
count is a static sum over the tree's nodes, the same for every block.
Under this convention the counts never exceed the closed-form bounds in
:func:`decode_op_bound`.  A first-order node of width w counts the
paper's butterfly, w*log2(w) operations for its FHT, whatever kernel runs
it: :func:`hadamard_transform` does w*(a+b) multiply-adds (w = a*b) in two
BLAS calls, so a time per counted operation compares the paper's count
with that kernel, not with a butterfly.

Ties: sign(0) is resolved either by a seeded +/-1 coin or deterministically
as +1.  Every potential sign evaluation has a fixed site: each end node of
the tree owns consecutive sites from its node's first site.  The random
coin is a pure hash of (seed, trial, site), so results are reproducible
under any batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .core import (
    FIRST_ORDER,
    LEFT_END,
    RIGHT_END,
    SPLIT,
    CodeParams,
    Path,
    PlotkinNode,
    _memory_order,
    enumerate_paths,
    extract_info_batch,  # not called here; benchmarks/tracer.py wraps this binding
    plotkin_tree,
)

ALG_PSI = "psi"
ALG_PHI = "phi"

SCALED = "scaled"
UNSCALED = "unscaled"
PRODUCT = "product"
MIN_SUM = "min-sum"
TIE_RANDOM = "random"
TIE_POSITIVE = "positive"

__all__ = [
    "ALG_PSI",
    "ALG_PHI",
    "SCALED",
    "UNSCALED",
    "PRODUCT",
    "MIN_SUM",
    "TIE_RANDOM",
    "TIE_POSITIVE",
    "DecoderOptions",
    "DecodeResult",
    "PathTrace",
    "GenieTrace",
    "recalc_v",
    "recalc_u",
    "md_repetition",
    "md_full_space",
    "md_biorthogonal",
    "hadamard_transform",
    "biorthogonal_codeword",
    "biorthogonal_codebook",
    "decode_psi",
    "decode_phi",
    "decode_batch",
    "genie_decode",
    "genie_batch",
    "decode_op_bound",
]


@dataclass(frozen=True)
class DecoderOptions:
    """Rule selection for the recursive decoders.

    u_rule: SCALED midpoint (y' + y''*v_hat)/2 or UNSCALED sum; decisions
        are identical, only intermediate magnitudes and op counts differ.
        Unscaled magnitudes grow as 2^((m-r) 2^r) in the worst case and
        overflow to inf once min(r, m-r) reaches about 9; signs (hence
        noiseless decisions) survive, but noisy inputs on such deep codes
        should use the scaled rule.
    v_rule: PRODUCT estimate y'*y'' or the MIN_SUM variant
        sign(y'*y'') * min(|y'|, |y''|).
    tie_rule: TIE_RANDOM draws a seeded +/-1 coin for sign(0); TIE_POSITIVE
        resolves to +1 (deterministic mode for reproducible unit tests).
    tie_seed: seed of the tie coin; combined with the per-call trial index.
    trace: record end values, decisions, and decision order per path.
    """

    u_rule: str = SCALED
    v_rule: str = PRODUCT
    tie_rule: str = TIE_RANDOM
    tie_seed: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.u_rule not in (SCALED, UNSCALED):
            raise ValueError(f"unknown u_rule {self.u_rule!r}")
        if self.v_rule not in (PRODUCT, MIN_SUM):
            raise ValueError(f"unknown v_rule {self.v_rule!r}")
        if self.tie_rule not in (TIE_RANDOM, TIE_POSITIVE):
            raise ValueError(f"unknown tie_rule {self.tie_rule!r}")


@dataclass
class PathTrace:
    """End value, +/-1 decision, and finalization rank of one path."""

    value: float
    decision: int
    order: int


@dataclass
class DecodeResult:
    """Decoded info bits, the matching codeword, and the operation count."""

    info: np.ndarray
    codeword: np.ndarray
    op_count: int
    trace: dict[Path, PathTrace] | None = None


@dataclass
class GenieTrace:
    """Per-path end values of the genie-aided recursion (all-ones truth).

    support_sums holds, for every order-1 split node keyed by its descent
    prefix in sorted order, the sum of the node's values over the
    canonical half-block support (the support of the codeword that flips
    exactly the second half).
    """

    end_values: dict[Path, float]
    support_sums: dict[tuple[int, ...], float]


# --- tie randomness ---------------------------------------------------------

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _tie_signs(seed: int, trials: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """+/-1 coins that depend only on (seed, trial, site)."""
    h = _mix64(trials.astype(np.uint64) * _MIX_A
               ^ sites.astype(np.uint64) * _MIX_B
               ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return np.where((h >> np.uint64(63)).astype(bool), -1.0, 1.0)


def _signs(values: np.ndarray, options: DecoderOptions, trials: np.ndarray,
           site: int) -> np.ndarray:
    """Componentwise sign with tie resolution; column j resolves its ties at
    site + j, so site indices stay aligned whether or not ties occur."""
    out = np.sign(values)
    if np.count_nonzero(out) < out.size:  # one call: sign(NaN) is NaN, not a tie
        zero = out == 0.0
        if options.tie_rule == TIE_POSITIVE:
            out[zero] = 1.0
        else:
            rows, cols = np.nonzero(zero)
            out[rows, cols] = _tie_signs(options.tie_seed, trials[rows],
                                         np.uint64(site) + cols.astype(np.uint64))
    return out


# --- recalculation rules ----------------------------------------------------

_V_OPS = {PRODUCT: 1, MIN_SUM: 3}  # counted operations per symbol pair
_U_OPS = {SCALED: 3, UNSCALED: 2}


def _v_step(y1: np.ndarray, y2: np.ndarray, v_rule: str) -> np.ndarray:
    if v_rule == PRODUCT:
        return y1 * y2
    return np.sign(y1) * np.sign(y2) * np.minimum(np.abs(y1), np.abs(y2))


def _u_step(y1: np.ndarray, y2: np.ndarray, v_hat: np.ndarray, u_rule: str) -> np.ndarray:
    # one temporary; y2*v_hat + y1 rounds as y1 + y2*v_hat, IEEE addition
    # being exactly commutative
    u = y2 * v_hat
    u += y1
    if u_rule == SCALED:
        u *= 0.5
    return u


def recalc_v(y1: np.ndarray, y2: np.ndarray, v_rule: str = PRODUCT) -> np.ndarray:
    """Channel estimate of the v constituent from the two halves.

    PRODUCT: y1*y2 (len multiplications).  MIN_SUM: sign(y1*y2) *
    min(|y1|, |y2|) (3*len operations).
    """
    y1, y2 = np.asarray(y1, dtype=np.float64), np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape:
        raise ValueError(f"length mismatch: {y1.shape} vs {y2.shape}")
    if v_rule not in _V_OPS:
        raise ValueError(f"unknown v_rule {v_rule!r}")
    return _v_step(y1, y2, v_rule)


def recalc_u(y1: np.ndarray, y2: np.ndarray, v_hat: np.ndarray,
             u_rule: str = SCALED) -> np.ndarray:
    """Combine both halves into an estimate of u given the decoded v.

    SCALED: (y1 + y2*v_hat)/2, which maps [-1,+1] inputs back into
    [-1,+1] (3*len operations).  UNSCALED: y1 + y2*v_hat (2*len); all
    downstream decisions are invariant under the positive scaling.
    """
    y1, y2 = np.asarray(y1, dtype=np.float64), np.asarray(y2, dtype=np.float64)
    v_hat = np.asarray(v_hat, dtype=np.float64)
    if y1.shape != y2.shape or y1.shape != v_hat.shape:
        raise ValueError("recalc_u requires equal-length blocks")
    if not np.all(np.abs(v_hat) == 1):
        raise ValueError("v_hat entries must be +1 or -1")
    if u_rule not in _U_OPS:
        raise ValueError(f"unknown u_rule {u_rule!r}")
    return _u_step(y1, y2, v_hat, u_rule)


# --- fast Hadamard transform ------------------------------------------------

def hadamard_transform(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two).

    Output index j holds sum_i x[i] * (-1)^popcount(i & j), i.e. the
    correlations of x with every linear +/-1 pattern.

    The width w = a*b splits as a = 2^floor(log2(w)/2), and Sylvester's
    H_w = H_a (x) H_b turns the transform into two small matrix products,
    H_a @ X @ H_b over each row X viewed as a (a, b) block.  Both products
    run stacked, one block per row, so a row's result does not depend on
    the rows beside it, the batch size or the BLAS thread count.  On dyadic
    input small enough that every partial sum is exact (+/-1 symbols, say)
    the result is exact, whatever the summation order; on other real input
    it can differ from a butterfly's in the last bits.
    """
    x = np.asarray(x, dtype=np.float64)
    width = x.shape[-1]
    if width < 1 or width & (width - 1):
        raise ValueError(f"length must be a power of two, got {width}")
    a, b, _, h_a, h_b, _ = _first_order_tables(width)
    return (h_a @ (x.reshape(-1, a, b) @ h_b)).reshape(x.shape)


class _FirstOrderTables(NamedTuple):
    """Read-only tables of one width w = a * b, built once per width."""

    a: int  # 2^floor(log2(w) / 2)
    b: int  # w // a
    b_log: int  # log2(b)
    h_a: np.ndarray  # the a x a and b x b Hadamard matrices, H_w = H_a (x) H_b
    h_b: np.ndarray
    bits: np.ndarray  # (2w, log2(w) + 1) uint8: row 2*best + negative holds a winner's info bits


@cache
def _first_order_tables(width: int) -> _FirstOrderTables:
    """The Kronecker factors of :func:`hadamard_transform` and the info-bit
    table of a first-order node, for one power-of-two width.

    Row 2*best + negative of the bit table holds the info bits of the winner
    (pattern best, sign -1 when negative; see the module docstring), read
    from the top bit of one integer `code`, so that widths below 4 need no
    case of their own.  The factors are at most 64 x 64 and the table at
    most 8192 x 13 for widths up to 2^12.
    """
    length_log = width.bit_length() - 1
    a = 1 << (length_log // 2)
    b = width // a
    # column by column from the narrowest integers that hold `code`: a whole
    # (2w, log2(w) + 1) integer temporary adds 376 MiB to the peak memory of
    # one transform at width 2^20
    row = np.arange(2 * width, dtype=np.min_scalar_type(2 * width - 1))
    best, negative = row >> 1, row & 1
    code = (best >> 1 << 2) | negative << 1 | (negative ^ best & 1)
    bits = np.empty((2 * width, length_log + 1), dtype=np.uint8)
    for column in range(length_log + 1):
        bits[:, column] = code >> (length_log - column) & 1
    h_a, h_b = (np.where(_hadamard_negative(np.arange(n), n), -1.0, 1.0) for n in (a, b))
    for table in (h_a, h_b, bits):
        table.flags.writeable = False
    return _FirstOrderTables(a, b, b.bit_length() - 1, h_a, h_b, bits)


def _hadamard_negative(patterns: np.ndarray, width: int) -> np.ndarray:
    """Where rows `patterns` of the width x width Hadamard matrix hold -1.

    Entry (j, i) of the matrix is (-1)^popcount(i & j): the sign rule of
    :func:`hadamard_transform`, and the only place the matrix is written.
    """
    index = np.arange(width, dtype=np.min_scalar_type(width - 1))  # the narrowest that fits
    odd = np.bitwise_count(index[patterns][:, None] & index) & 1  # a pattern past the end raises
    return odd.astype(bool)


def biorthogonal_codeword(pattern: np.ndarray | int, width: int) -> np.ndarray:
    """+/-1 rows of the width x width Hadamard matrix, one per pattern index;
    width is a power of two, and a pattern index past its end raises."""
    return np.where(_hadamard_negative(np.atleast_1d(pattern), width), -1.0, 1.0)


def biorthogonal_codebook(g: int) -> np.ndarray:
    """All 2l codewords of the length l = 2^(g+1) first-order code.

    Row order is the tie-breaking index: the all-ones word first, its
    negation second, then the +/- pair of every balanced pattern in
    ascending pattern order.  Rows beyond the first two all have exactly
    2^g entries equal to -1.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    width = 1 << (g + 1)
    rows = biorthogonal_codeword(np.arange(width), width)
    return np.stack([rows, -rows], axis=1).reshape(2 * width, width)


# --- end-node decisions -----------------------------------------------------

def _rows(y: np.ndarray) -> np.ndarray:
    """The (B, w) rows of a symbol-first (w, B) view, each contiguous in memory.

    For row-major input that is the view itself; a symbol-major slab is
    copied.  Sums along a row and the FHT then see each row as they would in
    a (B, n) C array, and round the same whatever the input's memory order:
    summed along the slab's symbol axis, a row of 8 or more reals rounds
    differently from numpy's pairwise row sum.
    """
    rows = y.T
    if rows.shape[1] > 1 and rows.strides[1] != rows.itemsize:
        rows = np.ascontiguousarray(rows)
    return rows


def _repetition(y: np.ndarray, options: DecoderOptions, trials: np.ndarray,
                site: int, trace: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """MD decisions of repetition blocks: (+/-1 decisions, block means), (B, 1)
    each; the means only under `trace`, None otherwise."""
    total = y.sum(axis=1, keepdims=True)
    return _signs(total, options, trials, site), total / y.shape[1] if trace else None


def _first_order(y: np.ndarray, options: DecoderOptions, trials: np.ndarray, site: int,
                 cw: np.ndarray, trace: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """MD decisions of first-order blocks via the FHT.

    y holds one block per row, (B, w); writes the +/-1 codewords into cw,
    (B, w) in any memory order, and returns (info bits, end values); the
    end value, the winning correlation over the block length, (B, 1), is
    computed only under `trace` (None otherwise).  The info bits and the
    codeword are read off the winner (see the module docstring).
    """
    width = y.shape[1]
    a, b, b_log, h_a, h_b, bit_table = _first_order_tables(width)
    corr = hadamard_transform(y)  # the module binding, which benchmarks/tracer.py wraps
    best = np.abs(corr).argmax(axis=1)  # first (lowest-index) maximum wins
    winning = corr.take(np.arange(0, corr.size, width) + best)[:, None]
    sign = _signs(winning, options, trials, site)
    # .take gathers rows several times faster than fancy indexing
    bits = bit_table.take(2 * best + np.signbit(sign[:, 0]), axis=0)
    np.multiply((sign * h_a.take(best >> b_log, axis=0))[:, :, None],
                h_b.take(best & (b - 1), axis=0)[:, None, :],
                out=cw.reshape(-1, a, b))  # splitting an axis is always a view
    return bits, winning * sign / width if trace else None


def _one_block(z: np.ndarray) -> np.ndarray:
    """One nonempty 1-D block as a (1, n) batch; a (B, n) array is refused,
    not read as one block of B*n symbols."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected one 1-D block, got shape {z.shape}")
    if z.shape[0] == 0:
        raise ValueError("empty block")
    return z[None, :]


def md_repetition(z: np.ndarray, options: DecoderOptions | None = None,
                  trial: int = 0) -> tuple[int, float]:
    """Minimum-distance decision for a repetition block.

    Returns (+/-1 decision, end value), the end value being the block mean.
    """
    decision, mean = _repetition(_one_block(z), options or DecoderOptions(),
                                 np.array([trial], dtype=np.uint64), 0, trace=True)
    return int(decision[0, 0]), float(mean[0, 0])


def md_full_space(z: np.ndarray, options: DecoderOptions | None = None,
                  trial: int = 0) -> np.ndarray:
    """Componentwise sign decision, exact MD decoding for a full space."""
    signs = _signs(_one_block(z), options or DecoderOptions(), np.array([trial], dtype=np.uint64), 0)
    return signs[0].astype(np.int8)


def md_biorthogonal(z: np.ndarray, g: int, options: DecoderOptions | None = None,
                    trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """MD decoding of a first-order block of length l = 2^(g+1) via the FHT.

    Returns (codeword, info bits).  The winner maximizes the inner product
    over all 2l codewords; among equal-magnitude correlations the lowest
    pattern index wins, and an exactly zero winning correlation falls back
    to the tie rule for its sign.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (1 << (g + 1),):
        raise ValueError(f"block length must be 2^(g+1)={1 << (g + 1)}")
    cw = np.empty((1, z.shape[0]))
    info, _ = _first_order(z[None, :], options or DecoderOptions(),
                           np.array([trial], dtype=np.uint64), 0, cw, trace=False)
    return cw[0].astype(np.int8), info[0]


# --- the decoders' walk -------------------------------------------------------

@cache
def _op_count(m: int, r: int, first_order_ends: bool, u_rule: str, v_rule: str) -> int:
    """Counted operations of one decoded block: a static sum over the tree."""

    def node_ops(node) -> int:
        width = 1 << node.length_log
        if node.kind == SPLIT:
            return (_V_OPS[v_rule] + _U_OPS[u_rule]) * (width // 2)
        if node.kind == FIRST_ORDER:
            # two ops per butterfly pair, width/2 pairs a stage; then width
            # magnitudes, width-1 comparisons and one sign
            return width * node.length_log + 2 * width
        return width  # width signs, or width-1 additions plus the sign

    return sum(node_ops(node) for node in plotkin_tree(m, r, first_order_ends).nodes)


def _decode(y: np.ndarray, params: CodeParams, algorithm: str,
            options: DecoderOptions | None, trials: np.ndarray | None,
            trace: bool = False) -> tuple[np.ndarray, np.ndarray, int, tuple | None]:
    """Validate, then walk the tree: (info, codewords, op count, trace).

    The trace, when asked for, holds the (B, k) end values and decisions
    per info column.
    """
    options = options or DecoderOptions()
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape[1] != params.n:
        raise ValueError(f"blocks must have length n={params.n}, got {y.shape[1]}")
    if algorithm not in (ALG_PSI, ALG_PHI):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == ALG_PHI and params.r == 0:
        raise ValueError("phi requires r >= 1; use psi for repetition codes")
    if trials is None:
        trials = np.arange(y.shape[0], dtype=np.uint64)
    else:
        trials = np.asarray(trials, dtype=np.uint64)
        if trials.shape != (y.shape[0],):
            raise ValueError("trials must hold one index per row")
    phi = algorithm == ALG_PHI
    order = _memory_order(y)
    info = np.empty((y.shape[0], params.k), dtype=np.uint8, order=order)
    if trace:
        values = np.empty((y.shape[0], params.k))
        decisions = np.empty((y.shape[0], params.k), dtype=np.int64)

    def walk(node, y: np.ndarray, cw: np.ndarray) -> None:
        # decodes the symbol-first view y, (2^length_log, B), into the view
        # cw and the node's info columns
        if node.kind == SPLIT:
            v, u = node.children
            half = y.shape[0] // 2
            y1, y2 = y[:half], y[half:]
            walk(v, _v_step(y1, y2, options.v_rule), cw[half:])
            walk(u, _u_step(y1, y2, cw[half:], options.u_rule), cw[:half])
            cw[half:] *= cw[:half]  # symbol re-assembly (u, u*v), uncounted
            return
        if node.kind == FIRST_ORDER:
            bits, value = _first_order(_rows(y), options, trials, node.site, cw.T, trace)
        else:
            if node.kind == RIGHT_END:
                cw.T[:], value = _signs(y.T, options, trials, node.site), y.T
            else:
                signs, value = _repetition(_rows(y), options, trials, node.site, trace)
                cw[:] = signs.T
            bits = cw[:len(node.paths)].T < 0
        info[:, node.info] = bits
        if trace:
            values[:, node.info] = value
            decisions[:, node.info] = np.where(bits, -1, 1)

    cw = np.empty(y.shape, order=order)
    with np.errstate(over="ignore"):  # unscaled intermediates may reach inf
        walk(plotkin_tree(params.m, params.r, phi).root, y.T, cw.T)
    ops = _op_count(params.m, params.r, phi, options.u_rule, options.v_rule)
    return info, cw, ops, (values, decisions) if trace else None


def decode_batch(y: np.ndarray, params: CodeParams, algorithm: str = ALG_PSI,
                 options: DecoderOptions | None = None,
                 trials: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode a (B, n) batch of real blocks; rows are independent trials.

    Returns (info bits (B, k), codewords (B, n), op count per block),
    both in y's memory order: an F-ordered (symbol-major) batch decodes
    fastest, to the same bits (see the module docstring).
    `trials` supplies the per-row trial indices for the tie coin.  Nothing
    checks the output here: a row whose intermediates overflow to inf and
    then NaN yields NaN symbols, which :func:`decode_psi` and :func:`decode_phi`
    refuse.
    """
    info, cw, ops, _ = _decode(y, params, algorithm, options, trials)
    return info, cw, ops


def _decode_single(y: np.ndarray, params: CodeParams, algorithm: str,
                   options: DecoderOptions | None, trial: int) -> DecodeResult:
    options = options or DecoderOptions()
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.n,):
        raise ValueError(f"received block must have length n={params.n}")
    with np.errstate(invalid="ignore"):  # NaN symbols are refused below
        info, cw, ops, trace = _decode(y[None, :], params, algorithm, options,
                                       np.array([trial], dtype=np.uint64), options.trace)
    if np.isnan(cw).any():
        raise ValueError("the decoder's intermediates overflowed: decoded symbols "
                         "are NaN; scale the received word down")
    if trace is not None:  # decode order is the lexicographic path order
        values, decisions = trace
        trace = {path: PathTrace(float(values[0, j]), int(decisions[0, j]), j)
                 for j, path in enumerate(enumerate_paths(params))}
    return DecodeResult(info[0], cw[0].astype(np.int8), ops, trace)


def decode_psi(y: np.ndarray, params: CodeParams,
               options: DecoderOptions | None = None, trial: int = 0) -> DecodeResult:
    """Recursive decoding down to repetition and full-space end nodes."""
    return _decode_single(y, params, ALG_PSI, options, trial)


def decode_phi(y: np.ndarray, params: CodeParams,
               options: DecoderOptions | None = None, trial: int = 0) -> DecodeResult:
    """Recursive decoding that stops at first-order (biorthogonal) nodes."""
    return _decode_single(y, params, ALG_PHI, options, trial)


def decode_op_bound(params: CodeParams, algorithm: str = ALG_PSI,
                    u_rule: str = SCALED) -> int:
    """Closed-form ceiling on the decoder's operation count."""
    n, m, r = params.n, params.m, params.r
    lo = min(r, m - r)
    if algorithm == ALG_PSI:
        return (4 if u_rule == SCALED else 3) * n * lo + n
    if algorithm == ALG_PHI:
        return (3 if u_rule == SCALED else 2) * n * lo + n * (m - r) + n
    raise ValueError(f"unknown algorithm {algorithm!r}")


# --- genie-aided recursion ---------------------------------------------------

@cache
def _support_nodes(m: int, r: int) -> tuple[PlotkinNode, ...]:
    """The order-1 split nodes of the {m, r} tree, one genie support column
    each.  They come in pre-order, which is also sorted prefix order."""
    return tuple(node for node in plotkin_tree(m, r).nodes
                 if node.kind == SPLIT and node.order == 1)


def genie_batch(y: np.ndarray, params: CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """Genie-aided recursion over a (B, n) batch, all-ones transmission.

    Every decoded constituent is replaced by its true (all-ones) value, so
    the recursion degenerates to pure dataflow: products on v steps and
    midpoints on u steps.  Returns the (B, k) end values y(path) in path
    (lexicographic) order and the (B, s) half-block support sums, one
    column per order-1 split node in pre-order (see :func:`_support_nodes`).
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape[1] != params.n:
        raise ValueError(f"blocks must have length n={params.n}")
    values = np.empty((y.shape[0], params.k))
    sums = []  # the walk reaches the support nodes in pre-order

    def walk(node, y: np.ndarray) -> None:
        if node.kind == LEFT_END:
            values[:, node.info] = y.sum(axis=1, keepdims=True) / y.shape[1]
        elif node.kind == RIGHT_END:
            values[:, node.info] = y
        else:
            half = y.shape[1] // 2
            y1, y2 = y[:, :half], y[:, half:]
            if node.order == 1:
                # Support sum of the codeword flipping the second half: same
                # law as any other balanced support of this first-order node.
                sums.append(y2.sum(axis=1))
            v, u = node.children
            walk(v, y1 * y2)
            walk(u, (y1 + y2) * 0.5)

    walk(plotkin_tree(params.m, params.r).root, y)
    # Allocated after the walk: allocated before it, this array made the
    # walk's large temporaries fault in afresh on every call, which more than
    # doubled the page faults of a path_statistics run on {12,1}.
    supports = np.empty((y.shape[0], len(_support_nodes(params.m, params.r))))
    for j, column in enumerate(sums):
        supports[:, j] = column
    return values, supports


def genie_decode(y: np.ndarray, params: CodeParams) -> GenieTrace:
    """Genie-aided end values for a single received block.

    The genie codeword is the all-ones word; channel symmetry makes it the
    canonical choice.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.n,):
        raise ValueError(f"received block must have length n={params.n}")
    values, supports = genie_batch(y[None, :], params)
    return GenieTrace(
        end_values={p: float(values[0, j]) for j, p in enumerate(enumerate_paths(params))},
        support_sums={node.prefix: float(supports[0, j])
                      for j, node in enumerate(_support_nodes(params.m, params.r))},
    )
