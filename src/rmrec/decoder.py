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
stops at the first-order nodes), and run the same kernels: the v step, the
u step, the sign with tie resolution, and the repetition and first-order
decisions.  The info bits of a clean codeword are read by the batched
walk: :func:`extract_info_batch` is a psi decode that checks the decoded
word against its input.  So is the genie-aided recursion:
:func:`genie_batch` is a psi decode forced to decide +1 at every end node,
through the same walk, kernels and workspace, which records the end
values and makes no decision.

Single blocks: :func:`decode_psi` and :func:`decode_phi` take one 1-D
block and walk the tree on their own (:func:`_decode_single`), on 1-D
float64 views with fresh temporaries, with no plan and no workspace.  They
run the batched walk's kernels in its order, :func:`_v_step`,
:func:`_u_step` and :func:`hadamard_transform` on a (1, w) view, and sum a
repetition block with numpy's pairwise sum of its contiguous row, as the
batched walk sums a row.  Only the decisions differ in form: a repetition
or first-order node decides on one float, its sum or its winning
correlation, with a scalar sign (:func:`_sign`), where the batched walk
evaluates (B,)-array signs, tie checks and gathers; a full space takes
the batched walk's row-wise signs on its (1, w) row.  So a single decode's
info bits, codeword and op count equal its row of :func:`decode_batch`
with the same trial index, to the bit.  The input's shape alone selects
the walk: a (B, n) batch stays batched, B = 1 included.  The two walks
are kept apart because at B = 1 numpy's per-call dispatch, not
arithmetic, fills a decode: slab views of a workspace and per-row arrays
for one row cost more than the scalar decisions, and the batched walk
keeps its slabs for the Monte Carlo blocks.  An end node of the single
walk that would decide on NaN raises ValueError.

Memory order: the batched walk slices the symbol axis of a symbol-first
(n, B) view, the transpose of the (B, n) batch a caller passes.  For a
row-major (C-ordered) batch every node works on B short row segments, as
numpy lays out each temporary like its inputs; for a symbol-major
(F-ordered) batch, an (n, B) C array underneath, every v step, u step,
sign and re-assembly runs on one contiguous (w/2, B) or (w, B) slab,
which is much faster at small widths.  Two kinds of step depend on the
order of their additions.  The repetition node's sum adds in one order
for both layouts: numpy's pairwise order over a contiguous row (Higham,
SIAM J. Sci. Comput. 14, 1993), which :func:`_block_sums` writes out with
slab-wide adds when the symbols of a block are not adjacent in memory;
numpy itself would sum down a slab one symbol at a time.  The first-order
node's FHT and argmax read each trial's row, a strided view of a
symbol-major slab, which the transform's matrix products round as they
would a contiguous row.  The output is therefore bit-identical for any
memory order of the input, and comes back in the input's order.

Workspace: a batched decode's temporaries live in one flat workspace,
which the walk carves by byte offset (see :func:`_plan`).  A split node of
width w keeps its v estimate, and once the v child is decoded its u
estimate, in one (w/2, B) slot after its ancestors' slots, laid out like
the batch; the min-sum v step's scratch, as large, comes after the slot,
in the node's type, before the v child's temporaries take that place.  A
first-order node of width w runs its transform's two products and their
magnitudes in the 2*B*w elements after its ancestors' slots.  Those steps
write with `out=`.  Beside the decode's outputs, the walk allocates only
small arrays at end nodes: sums, winners and bits per row, the a + b
symbols of a wide winner's factor rows (w = a*b, see
:func:`hadamard_transform`) and the signs of a full-space node, at most
2^r symbols wide.  No step reads an element that an earlier step of the
same decode has not written, so what a workspace held before never
enters a result.  The caller passes the workspace, and the decoder keeps
none: beyond its read-only caches, nothing outlives a call.  A direct call of :func:`decode_batch` or
:func:`genie_batch` allocates its workspace for the call; direct
:func:`decode_psi` and :func:`decode_phi` calls walk a single block and
allocate no workspace.  A Monte Carlo run, genie runs included,
allocates one workspace per pool thread for the whole run and passes each
block's decode its thread's (see :func:`rmrec.simulate._row_blocks`), so
that from its second block on a thread allocates no temporaries of the
block's size and faults in no fresh pages for them.  A Monte Carlo decode
reads only the info bits, and runs info-only: a later step reads a node's
codeword only when the node lies in some ancestor's v subtree, so the
decode builds no codeword along the root's u chain, the nodes whose
descent prefix is all ones.  It skips their re-assembly and, at a
first-order node there (the root of {m, 1}), the codeword build.

Dtype: every decode casts its input to float64 and runs in float64,
float32 input included, except the blocks of a Monte Carlo run.  Those
are +/-1 words by construction, and the run says so by passing a byte
(uint8) workspace; no data is scanned.  Such a decode runs on integers:
its input is cast to int8, and it runs the unscaled u step, whatever the
options' u rule, so that every value of a node with e bits (see
:func:`_bit_budget`) is an integer k with |k| <= 2^e.  The scaled rule's
value is k/2^e, one power-of-two scale per node, so every sign, tie,
minimum, FHT argmax, info bit and codeword equals the scaled decode's;
the op count is still the options' rule's.  Each node's values live in
the narrowest signed type that holds their bits (int8 up to 6, int16 up
to 14, int32 up to 30, int64 up to 62), fixed once per tree and v rule
(:func:`_plan`); a step that writes a wider slot computes in the slot's
type.  A repetition node sums in a type that holds e + L bits, and a
first-order node {L, 1} casts its block into float32 (e + L <= 24) or
float64 (<= 53) for its transform, where every partial sum is exact in
any order.  Codewords are int8.  A tree past these limits is refused,
and its Monte Carlo blocks stay float64: psi {12,3}, 65 bits, for one.
Up to 53 bits the float64 decode is exact too, and every sign, tie,
argmax, decision and codeword of the integer decode equals float64's to
the bit; on psi {11,3} (57 bits), where float64 may round, the integer
decode is the exact one.  The genie's forced decode also runs on
integers, and turns each end value and support sum into float64 as
k * 2^-e (a repetition mean also divides by 2^L): float64's values, to
the bit.  Where float64 may carry a -0.0 into a full-space end value, the
forced decode holds float32 or float64 values in place of integers,
which keep the sign of zero (see :func:`_plan`), and its plan is refused
past 53 bits there: psi {8,5} and {11,3} among others, whose genie runs
in float64.  Single blocks, traced or not, and direct batches stay
float64.

First-order map: the FHT winner of a node {L, 1} is a pattern index
`best` in [0, 2^L) and a sign.  Its L+1 info bits, in the node's path
order, are the pattern bits (best >> (L-1)) & 1, ..., (best >> 1) & 1, one
per v step from the top, then the two symbols s and s ^ (best & 1) of the
closing {1, 1} node, where s is 1 when the sign is negative.  A read-only
table cached per width holds them for every winner: the decoder gathers
row 2*best + s.  The node's codeword, those bits encoded through the
{L, 1} Plotkin tree, is the sign times row `best` of the Hadamard matrix
(see :func:`biorthogonal_codeword`).  With w = a*b as in
:func:`hadamard_transform`, that row is the Kronecker product of row
best >> log2(b) of H_a and row best & (b - 1) of H_b; the decoder writes it
from the transform's cached factors and walks no {L, 1} tree.  End
values, the winning correlation over w here and the block mean at a
repetition node, are a scalar each in the single-block walk, which
records them when traced; the batched walk computes them only in a
forced decode, which has no first-order node.

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
    _rows,
    enumerate_paths,
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
    "md_biorthogonal",
    "hadamard_transform",
    "biorthogonal_codeword",
    "decode_psi",
    "decode_phi",
    "decode_batch",
    "extract_info_batch",
    "codeword_to_info",
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
    trace: record each path's end value (single-block decodes).
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
class DecodeResult:
    """Decoded info bits, the matching codeword, and the operation count.

    trace, when DecoderOptions.trace is set, maps each path, in path order,
    to its end value; path j's decision is 1 - 2 * info[j].
    """

    info: np.ndarray
    codeword: np.ndarray
    op_count: int
    trace: dict[Path, float] | None = None


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


_NAN = ("the decoder's intermediates overflowed: decoded symbols are NaN; "
        "scale the received word down")


def _sign(value: float, options: DecoderOptions, trials: np.ndarray, site: int) -> float:
    """The sign of one value, its tie resolved at `site` for the one trial
    in `trials` as :func:`_signs` resolves it; raises ValueError for NaN."""
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    if value != value:
        raise ValueError(_NAN)
    if options.tie_rule == TIE_POSITIVE:
        return 1.0
    # arrays, not numpy scalars, whose integer arithmetic warns on overflow
    return float(_tie_signs(options.tie_seed, trials, np.full(1, site, np.uint64))[0])


# --- recalculation rules ----------------------------------------------------

_V_OPS = {PRODUCT: 1, MIN_SUM: 3}  # counted operations per symbol pair
_U_OPS = {SCALED: 3, UNSCALED: 2}


def _v_step(y1: np.ndarray, y2: np.ndarray, v_rule: str, out: np.ndarray,
            spare: np.ndarray | None) -> np.ndarray:
    """Writes the v estimate of the halves y1, y2 into out, in out's type;
    min-sum also writes into `spare`, a free array of y1's shape and type."""
    if v_rule == PRODUCT:
        if out.dtype is y1.dtype:
            return np.multiply(y1, y2, out=out)
        # numpy computes in its inputs' type: a wider integer out needs the
        # product in its own
        return np.multiply(y1, y2, out=out, dtype=out.dtype)
    # min(|y1|, |y2|) * sign(y1) * sign(y2): each later factor is 0 or +/-1,
    # so every order rounds alike, and gives a zero the sign of any other
    np.minimum(np.abs(y1, out=out), np.abs(y2, out=spare), out=out)
    np.multiply(out, np.sign(y1, out=spare), out=out)
    return np.multiply(out, np.sign(y2, out=spare), out=out)


def _u_step(y1: np.ndarray, y2: np.ndarray, v_hat: np.ndarray | None, u_rule: str,
            out: np.ndarray) -> np.ndarray:
    """Writes the u estimate of the halves y1, y2, given v_hat, into out,
    in out's type, which holds one bit more than the halves' in an integer
    decode; v_hat None stands for all +1, as y2*1 rounds to y2."""
    # y2*v_hat + y1 rounds as y1 + y2*v_hat, IEEE addition being exactly
    # commutative; +/-y2 fits y2's type, and y1 + y2 may not
    if v_hat is None:
        np.add(y2, y1, out=out, dtype=out.dtype)
    else:
        np.add(np.multiply(y2, v_hat, out=out), y1, out=out)
    return np.multiply(out, 0.5, out=out) if u_rule == SCALED else out


# --- fast Hadamard transform ------------------------------------------------

def hadamard_transform(x: np.ndarray, *, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
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

    As in numpy, `out` receives the result and is returned, and `scratch`
    receives the first product; each is a C-contiguous array of x's shape
    in the transform's dtype, allocated when left None.  The transform runs
    in out's dtype (float32 or float64 in an integer decode of +/-1 words,
    see the module docstring), and in float64 when `out` is None.
    """
    dtype = np.float64 if out is None else out.dtype.type
    x = np.asarray(x, dtype=dtype)
    width = x.shape[-1]
    if width < 1 or width & (width - 1):
        raise ValueError(f"length must be a power of two, got {width}")
    a, b, h_a, h_b = _hadamard_factors(width, dtype)
    out = np.empty(x.shape, dtype) if out is None else out
    scratch = np.empty(x.shape, dtype) if scratch is None else scratch
    # splitting the last axis of a C-contiguous array is always a view
    np.matmul(h_a, np.matmul(x.reshape(-1, a, b), h_b, out=scratch.reshape(-1, a, b)),
              out=out.reshape(-1, a, b))
    return out


def biorthogonal_codeword(pattern: np.ndarray | int, width: int) -> np.ndarray:
    """+/-1 rows of the width x width Hadamard matrix, one per pattern index;
    width is a power of two, and a pattern index past its end raises.

    Entry (j, i) of the matrix is (-1)^popcount(i & j): the sign rule of
    :func:`hadamard_transform`, and the only place the matrix is written.
    """
    index = np.arange(width, dtype=np.min_scalar_type(width - 1))  # the narrowest that fits
    odd = np.bitwise_count(index[np.atleast_1d(pattern)][:, None] & index) & 1
    return np.where(odd.astype(bool), -1.0, 1.0)


@cache
def _hadamard_matrix(width: int, dtype: type = np.float64) -> np.ndarray:
    """The read-only width x width Hadamard matrix, width a power of two,
    in `dtype` (float64 or float32)."""
    matrix = biorthogonal_codeword(np.arange(width), width).astype(dtype, copy=False)
    matrix.flags.writeable = False
    return matrix


@cache
def _hadamard_factors(width: int,
                      dtype: type = np.float64) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(a, b, H_a, H_b) of :func:`hadamard_transform` at one power-of-two
    width w = a * b, a = 2^floor(log2(w) / 2): the split and its read-only
    a x a and b x b Hadamard factors in `dtype`, at most 64 x 64 for widths
    up to 2^12.
    """
    a = 1 << ((width.bit_length() - 1) // 2)
    return a, width // a, _hadamard_matrix(a, dtype), _hadamard_matrix(width // a, dtype)


@cache
def _first_order_bits(width: int) -> np.ndarray:
    """The read-only (2w, log2(w) + 1) uint8 info-bit table of a first-order
    node of width w: row 2*best + negative holds the info bits of the winner
    (pattern best, sign -1 when negative; see the module docstring).

    The bits are read from the top bit of one integer `code`, so that widths
    below 4 need no case of their own.  The table is at most 8192 x 13 for
    widths up to 2^12.
    """
    length_log = width.bit_length() - 1
    # column by column from the narrowest integers that hold `code`: a whole
    # (2w, log2(w) + 1) integer temporary adds 376 MiB to the peak memory
    # at width 2^20
    row = np.arange(2 * width, dtype=np.min_scalar_type(2 * width - 1))
    best, negative = row >> 1, row & 1
    code = (best >> 1 << 2) | negative << 1 | (negative ^ best & 1)
    bits = np.empty((2 * width, length_log + 1), dtype=np.uint8)
    for column in range(length_log + 1):
        bits[:, column] = code >> (length_log - column) & 1
    bits.flags.writeable = False
    return bits


# --- end-node decisions -----------------------------------------------------

def _block_sums(y: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
    """The (B,) block sums of a symbol-first (w, B) view, w a power of two,
    each rounded as numpy sums the block as one contiguous row.

    An integer block sums in `dtype`, which holds every sum, exactly and so
    in any order.  Contiguous rows are numpy's own sum.  Otherwise the sum
    writes numpy's pairwise order out over the whole slab: a sequential sum
    from zero below 8 symbols; else, within each 128-symbol block, 8 lanes
    summed sequentially over the block's 8-symbol groups, then
    ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), and blocks combined by halving;
    the sum starts from zero, so -0.0 blocks sum to +0.0, as in numpy.
    """
    if dtype is not None:
        return y.sum(axis=0, dtype=dtype)
    if y.strides[0] == y.itemsize:
        return y.sum(axis=0)
    width = y.shape[0]
    if width < 8:
        total = y[0] + 0.0
        for row in y[1:]:
            total += row
        return total
    groups = min(width, 128) // 8
    lanes = y.reshape(-1, groups, 8, y.shape[1])  # (blocks, groups, lanes, B)
    total = lanes[:, 0] if groups == 1 else lanes[:, 0] + lanes[:, 1]
    for group in range(2, groups):
        total += lanes[:, group]
    total = total.reshape(-1, y.shape[1])  # each block's lanes, block by block
    while len(total) > 1:
        total = total[0::2] + total[1::2]
    return total[0] + 0.0


def _winner_codewords(best, sign, dtype: type, cw: np.ndarray,
                      scratch: np.ndarray | None = None) -> None:
    """Writes sign times row `best` of the Hadamard matrix, built in `dtype`,
    into cw, in cw's type: for (B,) winners and (B, 1) signs one codeword
    per row of cw, (B, w) in any memory order, and for one int winner and
    one float sign the (w,) cw.  A narrow node gathers its rows into
    `scratch`, of cw's shape and `dtype`, when given."""
    width = cw.shape[-1]
    if width <= 128:  # rows of H_w, at most 128 KiB (mode "clip" writes into
        # scratch directly; no index needs clipping): two calls, not nine
        np.multiply(_hadamard_matrix(width, dtype).take(best, 0, scratch, "clip"),
                    sign, out=cw, casting="unsafe")
    else:
        a, b, h_a, h_b = _hadamard_factors(width, dtype)
        np.multiply((sign * h_a.take(best >> (b.bit_length() - 1), axis=0))[..., :, None],
                    h_b.take(best & (b - 1), axis=0)[..., None, :],
                    out=cw.reshape(-1, a, b), casting="unsafe")  # splitting an axis is a view


def _first_order(y: np.ndarray, options: DecoderOptions, trials: np.ndarray, site: int,
                 cw: np.ndarray | None, work: np.ndarray) -> np.ndarray:
    """MD decisions of first-order blocks via the FHT.

    y holds one block per row, (B, w); writes the +/-1 codewords into cw,
    (B, w) in any memory order, unless cw is None, and returns the info
    bits.  Both are read off the winner (see the module docstring).  The
    transform, its magnitudes and the gathered rows of a narrow node's
    codewords run in `work`, a free (2, B, w) C array of the transform's
    float type: y's, or for an integer y one that holds its sums exactly,
    into which y is cast first.
    """
    rows, width = y.shape
    corr, scratch = work[0], work[1]  # indexed: unpacking is slower
    if y.dtype is not corr.dtype:  # an integer block, cast into the transform's buffer
        np.copyto(corr, y)
        y = corr
    # the module binding, which benchmarks/tracer.py wraps
    hadamard_transform(y, out=corr, scratch=scratch)
    best = np.abs(corr, out=scratch).argmax(axis=1)  # first (lowest-index) maximum wins
    sign = _signs(corr[np.arange(rows), best][:, None], options, trials, site)
    if cw is not None:  # else no later step reads this node's codeword
        # built in the transform's type, written in cw's: int8 in an integer decode
        _winner_codewords(best, sign, corr.dtype.type, cw, scratch)
    # .take gathers rows several times faster than fancy indexing
    return _first_order_bits(width).take(2 * best + np.signbit(sign[:, 0]), axis=0)


def _first_order_block(y: np.ndarray, options: DecoderOptions, trials: np.ndarray, site: int,
                       cw: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`_first_order` on one float64 block y, (w,), with scalar
    decisions: writes its codeword into cw, (w,), and returns (info bits,
    end value), the bits a read-only row of the bit table, the end value
    the winning correlation over the block length.  Raises ValueError when
    the winning correlation is NaN."""
    width = len(y)
    corr = hadamard_transform(y[None])[0]  # the module binding, on a (1, w) view
    best = int(np.abs(corr).argmax())  # first (lowest-index) maximum wins
    winning = corr[best]
    sign = _sign(winning, options, trials, site)
    _winner_codewords(best, sign, np.float64, cw)
    return _first_order_bits(width)[2 * best + (sign < 0)], winning * sign / width


def md_biorthogonal(z: np.ndarray, g: int, options: DecoderOptions | None = None,
                    trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """MD decoding of a first-order block of length l = 2^(g+1) via the FHT.

    Returns (codeword, info bits).  The winner maximizes the inner product
    over all 2l codewords; among equal-magnitude correlations the lowest
    pattern index wins, and an exactly zero winning correlation falls back
    to the tie rule for its sign.  Raises ValueError when the winning
    correlation is NaN, as a NaN or inf - inf in the block makes it.
    """
    if g < 0:
        raise ValueError("g must be nonnegative")
    z = _rows(z, 1 << (g + 1), "a first-order block", np.float64, single=True)[0]
    trials = _trial_indices([trial], 1)
    cw = np.empty(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        info, _ = _first_order_block(z, options or DecoderOptions(), trials, 0, cw)
    return cw.astype(np.int8), info.copy()


# --- the decoders' walk -------------------------------------------------------

def _trial_indices(trials, rows: int) -> np.ndarray:
    """The (rows,) uint64 trial indices of the tie coin: one non-negative
    integer per row, or arange(rows) for None."""
    if trials is None:
        return np.arange(rows, dtype=np.uint64)
    trials = np.asarray(trials)
    if trials.shape != (rows,) or trials.dtype.kind not in "iu" or (trials < 0).any():
        raise ValueError(f"trials must hold one non-negative integer index per row, "
                         f"{rows} in all")
    return trials.astype(np.uint64, copy=False)


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


# signed integer types by the bits e they hold: every k with |k| <= 2^e
# fits the first whose limit is at least e
_INT_TYPES = ((6, np.int8), (14, np.int16), (30, np.int32), (62, np.int64))
# float types by the bits of the integers they hold exactly, in any order
# of additions: every integer of at most 2^b in magnitude, for b up to the
# limit
_FLOAT_TYPES = ((24, np.float32), (53, np.float64))


@cache
def _bit_budget(m: int, r: int, first_order_ends: bool, v_rule: str) -> int:
    """Bits that one block's decode of a +/-1 word needs: a static maximum
    over the tree's end nodes, the same under either u rule.

    A value at a node with e bits is k/2^e (scaled u rule) or k (unscaled)
    with |k| <= 2^e.  The root has e = 0; a product v step maps e to 2e, a
    min-sum v step keeps it, and a u step maps it to e + 1.  A full-space
    node needs e bits, and a repetition sum or an FHT of width 2^L needs
    e + L, as every partial sum, in any order, is bounded by the sum of the
    magnitudes.  The genie's support sum at an order-1 split node {L, 1}
    with e bits adds 2^(L-1) values: e + L - 1 bits, within the 2e + L - 1
    that its v child, the repetition node {L-1, 0}, needs under the product
    rule the genie runs.
    """

    def budget(step: _Step) -> int:
        if step.children:
            return max(map(budget, step.children))
        return step.bits + (0 if step.node.kind == RIGHT_END else step.node.length_log)

    return budget(_plan(m, r, first_order_ends, v_rule, False).root)


class _Step(NamedTuple):
    """One node of a decode's plan.  The node's values hold `bits` bits
    (see :func:`_bit_budget`) and have type `value`; `reduce` is the type of
    its reduction: a repetition node's block sums, a first-order node's
    transform, an order-1 split node's genie support sums (`value`
    elsewhere).  A split node keeps its v and then its u estimate, in its
    children's value types, in one slot of `slot` bytes per row; `children`
    are its children's steps, (v, u)."""

    node: PlotkinNode
    bits: int
    value: np.dtype
    reduce: np.dtype
    slot: int
    children: tuple[_Step, ...]


class _Plan(NamedTuple):
    """The steps of one decode, from the root's, and the workspace bytes per
    row that the decode needs."""

    root: _Step
    width: int


def _round8(size: int) -> int:
    return -(-size // 8) * 8


@cache
def _plan(m: int, r: int, first_order_ends: bool, v_rule: str, integer: bool,
          forced: bool = False) -> _Plan | None:
    """The plan of a float64 decode or, with `integer`, of an integer
    decode of +/-1 words: each node's values in the narrowest signed
    integer type that holds their bits, each repetition and support sum in
    the one that holds the sum's, and each first-order block cast into
    float32 or float64 for its transform.  None when some node's values or
    sums need more than 62 bits, or a first-order transform more than 53:
    the bit budget does not certify the tree for an integer decode.

    A `forced` integer decode, the genie's, keeps the -0.0 that float64
    may carry into a full-space end value: a u step can sum a value and its
    negative to zero, and a later product v step turn that zero into -0.0
    when the other factor is negative.  From each node below such a v step
    that still has a full space under it, values and sums are float32 (up
    to 24 bits) or float64 (up to 53), exact and signed at zero as float64's;
    the plan is None where one of them needs more.

    The workspace of a split node holds its slot, rounded up to 8 bytes
    per row so that every slot after it stays aligned, then min-sum's
    scratch for its v step, in its own type, or its children's
    temporaries, whichever is larger; a first-order node's holds its
    transform's two products.
    """

    def narrowest(bits: int, types=_INT_TYPES) -> np.dtype | None:
        if not integer:
            return np.dtype(np.float64)
        return next((np.dtype(dtype) for limit, dtype in types if bits <= limit), None)

    def step(node: PlotkinNode, e: int, zeros: bool = False, signed: bool = False,
             floating: bool = False) -> _Step | None:
        # `zeros`: a u step above may have made zeros; `signed`: a product v
        # step below that one may have made -0.0
        floating = floating or forced and signed and node.order >= 1
        types = _FLOAT_TYPES if floating else _INT_TYPES
        value, length_log, children, slot = narrowest(e, types), node.length_log, (), 0
        if node.kind == SPLIT:
            v, u = node.children
            children = (step(v, 2 * e if v_rule == PRODUCT else e, zeros, zeros, floating),
                        step(u, e + 1, True, signed, floating))
            if any(child is None for child in children):
                return None
            reduce = narrowest(e + length_log - 1, types) if node.order == 1 else value
            slot = _round8((1 << length_log - 1) * max(child.value.itemsize
                                                       for child in children))
        elif node.kind == RIGHT_END:
            reduce = value
        else:
            reduce = narrowest(e + length_log,
                               _FLOAT_TYPES if node.kind == FIRST_ORDER else types)
        if value is None or reduce is None:
            return None
        return _Step(node, e, value, reduce, slot, children)

    def need(step: _Step) -> int:
        width = 1 << step.node.length_log
        if step.children:
            spare = _round8(width // 2 * step.value.itemsize) if v_rule == MIN_SUM else 0
            return step.slot + max(spare, *map(need, step.children))
        return 2 * width * step.reduce.itemsize if step.node.kind == FIRST_ORDER else 0

    root = step(plotkin_tree(m, r, first_order_ends).root, 0)
    return None if root is None else _Plan(root, need(root))


def _pm1_workspace(params: CodeParams, algorithm: str, v_rule: str,
                   forced: bool = False) -> tuple[type, type, int]:
    """(word dtype, workspace dtype, workspace elements per row) of the
    decode of +/-1 blocks: int8 words and a byte workspace where the bit
    budget certifies the tree, float64 words and workspace elsewhere.
    `forced` sizes the genie's forced decode (psi, product v rule)."""
    phi = algorithm == ALG_PHI
    plan = _plan(params.m, params.r, phi, v_rule, True, forced)
    if plan is None:
        return np.float64, np.float64, _plan(params.m, params.r, phi, v_rule, False).width // 8
    return np.int8, np.uint8, plan.width


def _is_phi(params: CodeParams, algorithm: str) -> bool:
    """Whether `algorithm` is phi; raises ValueError for an unknown one, and
    for phi on a repetition code."""
    if algorithm not in (ALG_PSI, ALG_PHI):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == ALG_PHI and params.r == 0:
        raise ValueError("phi requires r >= 1; use psi for repetition codes")
    return algorithm == ALG_PHI


def _decode(y: np.ndarray, params: CodeParams, algorithm: str,
            options: DecoderOptions | None, trials: np.ndarray | None,
            supports: list | None = None, work: np.ndarray | None = None,
            info_only: bool = False,
            ) -> tuple[np.ndarray | None, np.ndarray | None, int, np.ndarray | None]:
    """Validate, then walk the tree: (info, codewords, op count, trace).

    A list passed as `supports` makes the decode forced, the genie's: every
    decision is taken to be +1, so the walk evaluates no sign, writes and
    allocates no codeword, and returns (None, None, op count, trace), the
    trace holding the (B, k) end values per info column; it appends the
    (B,) support sum of each order-1 split node, the sum of its input's
    second half, in pre-order.  A forced decode runs psi under the product
    v rule.  Only a forced decode traces (a single block's trace is
    :func:`_decode_single`'s), and any other returns None for the trace.
    An `info_only` decode returns no codewords, (info, None, op count,
    None), and builds the codeword of no node on the root's u chain, whose
    descent prefix is all ones: a later step reads a node's codeword only
    when the node lies in some ancestor's v subtree.  `work` is the
    decode's workspace, a flat array of at least B times its plan's row
    width (see :func:`_pm1_workspace`), allocated for the call when None.
    A byte (uint8) workspace is the caller's promise that every entry of y
    is +/-1, which nothing checks, and runs an integer decode, refused
    unless the bit budget certifies the tree: its codewords are int8, and
    it runs the unscaled u step (see the module docstring).  Any other
    workspace, float64 as the harness allocates it, holds the temporaries
    of a float64 decode.  The trace and the supports are float64 either
    way.
    """
    forced = supports is not None
    options = options or DecoderOptions()
    phi = _is_phi(params, algorithm)
    integer = work is not None and work.dtype == np.uint8
    plan = _plan(params.m, params.r, phi, options.v_rule, integer, integer and forced)
    if plan is None:
        raise ValueError(f"the bit budget does not certify {algorithm} on {params} "
                         f"for an integer decode")
    # exact values at one power-of-two scale per node: no decision depends
    # on the halving, only the end values that a forced decode records
    u_rule = UNSCALED if integer else options.u_rule
    y = _rows(y, params.n, "a received block", np.int8 if integer else np.float64)
    trials = _trial_indices(trials, len(y))
    order = _memory_order(y)
    if forced:
        values = np.empty((y.shape[0], params.k))
    else:
        info = np.empty((y.shape[0], params.k), dtype=np.uint8, order=order)
    size = len(y) * plan.width
    work = np.empty(size // 8) if work is None else work[:size // work.itemsize]
    min_sum = options.v_rule == MIN_SUM

    def slab(at: int, half: int, rows: int, dtype: np.dtype) -> np.ndarray:
        # a symbol-first (half, rows) array of dtype from byte `at` of the
        # workspace on, laid out like the batch
        if order == "F":
            return np.ndarray((half, rows), dtype, work, at)
        return np.ndarray((rows, half), dtype, work, at).T

    def walk(step: _Step, y: np.ndarray, cw: np.ndarray | None, keep: bool, at: int) -> None:
        # decodes the symbol-first view y, (2^length_log, B), into the
        # node's info columns and, when `keep`, into the view cw; its
        # temporaries go into the workspace from byte `at` on.  A forced
        # decode passes no cw, which the u step reads as an all +1 v_hat
        node = step.node
        if node.kind == SPLIT:
            v, u = step.children
            half, rows = y.shape[0] // 2, y.shape[1]
            y1, y2 = y[:half], y[half:]
            cw1, cw2 = (None, None) if forced else (cw[:half], cw[half:])
            if forced and node.order == 1:
                # an integer decode's sum k is the scaled rule's k/2^bits
                supports.append(_block_sums(y2, step.reduce) * 2.0 ** -step.bits if integer
                                else _block_sums(y2))
            # one slot, laid out like the batch, for the v estimate in v's
            # type and then the u estimate in u's; min-sum's scratch, in this
            # node's type, and the children's temporaries go after it
            free = at + step.slot * rows
            spare = slab(free, half, rows, y.dtype) if min_sum else None
            slot = slab(at, half, rows, v.value)
            # the u step reads v's codeword; only this node's re-assembly
            # reads u's
            walk(v, _v_step(y1, y2, options.v_rule, slot, spare), cw2, not forced, free)
            if u.value is not v.value:  # the plan's types are numpy's own instances
                slot = slab(at, half, rows, u.value)
            walk(u, _u_step(y1, y2, cw2, u_rule, slot), cw1, keep, free)
            if keep:
                cw2 *= cw1  # symbol re-assembly (u, u*v), uncounted
            return
        if node.kind == FIRST_ORDER:  # its transform's (2, B, w) buffers from byte `at` on
            buffers = np.ndarray((2, y.shape[1], y.shape[0]), step.reduce, work, at)
            info[:, node.info] = _first_order(y.T, options, trials, node.site,
                                              cw.T if keep else None, buffers)
            return
        # a full space decides on its symbols, a repetition node on its
        # (B, 1) block sums, whose end value is the block mean
        value = (y.T if node.kind == RIGHT_END else
                 _block_sums(y, step.reduce if integer else None)[:, None])
        if forced:
            if integer:  # k of the scaled rule's k/2^bits
                value = value * 2.0 ** -step.bits
            values[:, node.info] = value / y.shape[0] if node.kind == LEFT_END else value
            return
        signs = _signs(value, options, trials, node.site)
        if keep:
            cw.T[:] = signs
        info[:, node.info] = signs < 0

    # an info-only decode still passes the root a codeword buffer: the
    # codewords of the v subtrees are built there
    cw = None if forced else np.empty(y.shape, y.dtype, order=order)
    # unscaled intermediates may reach inf, and inf - inf is NaN; the
    # callers that must refuse NaN check the decoded symbols
    with np.errstate(over="ignore", invalid="ignore"):
        walk(plan.root, y.T, None if forced else cw.T, not (forced or info_only), 0)
    # the walk refers to itself; deleted, it frees what it holds now, not
    # at the next garbage collection
    del walk
    ops = _op_count(params.m, params.r, phi, options.u_rule, options.v_rule)
    if forced:
        return None, None, ops, values
    return info, None if info_only else cw, ops, None


def decode_batch(y: np.ndarray, params: CodeParams, algorithm: str = ALG_PSI,
                 options: DecoderOptions | None = None,
                 trials: np.ndarray | None = None, *, _work: np.ndarray | None = None,
                 _info_only: bool = False) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Decode a (B, n) batch of real blocks, or one 1-D block; rows are
    independent trials.

    Returns (info bits (B, k), codewords (B, n), op count per block),
    both in y's memory order: an F-ordered (symbol-major) batch decodes
    fastest, to the same bits (see the module docstring).
    `trials` supplies the per-row trial indices for the tie coin,
    non-negative integers; None stands for 0, 1, ..., B-1.  Nothing
    checks the output here: a row whose intermediates overflow to inf and
    then NaN yields NaN symbols, which :func:`decode_psi` and :func:`decode_phi`
    refuse.  `_work`, the decode's workspace, and `_info_only`, which
    returns None for the codewords and skips what only they need, are
    private to the Monte Carlo harness (see :func:`_decode`).
    """
    info, cw, ops, _ = _decode(y, params, algorithm, options, trials, work=_work,
                               info_only=_info_only)
    return info, cw, ops


def _decode_single(y: np.ndarray, params: CodeParams, algorithm: str,
                   options: DecoderOptions | None, trial: int) -> DecodeResult:
    """Decode one 1-D block on its own walk of the tree: :func:`_decode`'s
    kernels in the same order, on fresh (w,) temporaries, with scalar
    decisions at repetition and first-order nodes (see the module
    docstring).  Raises ValueError when an end node decides on NaN."""
    options = options or DecoderOptions()
    phi = _is_phi(params, algorithm)
    # contiguous, as the repetition sum of a row-major batch reads its row
    y = np.ascontiguousarray(_rows(y, params.n, "a received block", np.float64, single=True)[0])
    trials = _trial_indices([trial], 1)
    info = np.empty(params.k, dtype=np.uint8)
    values = np.empty(params.k) if options.trace else None
    min_sum = options.v_rule == MIN_SUM

    def walk(node: PlotkinNode, y: np.ndarray, cw: np.ndarray) -> None:
        # decodes y, (2^length_log,), into the node's info bits and its
        # codeword cw, a view of the same length
        if node.kind == SPLIT:
            v, u = node.children
            half = len(y) // 2
            y1, y2, cw1, cw2 = y[:half], y[half:], cw[:half], cw[half:]
            # the v estimate, then the u estimate, which the v child no longer reads
            estimate = np.empty(half)
            walk(v, _v_step(y1, y2, options.v_rule, estimate,
                            np.empty(half) if min_sum else None), cw2)
            walk(u, _u_step(y1, y2, cw2, options.u_rule, estimate), cw1)
            cw2 *= cw1  # symbol re-assembly (u, u*v), uncounted
            return
        if node.kind == FIRST_ORDER:
            bits, value = _first_order_block(y, options, trials, node.site, cw)
        elif node.kind == RIGHT_END:
            cw[:] = _signs(y[None], options, trials, node.site)[0]
            if np.isnan(cw).any():
                raise ValueError(_NAN)
            bits, value = cw < 0, y
        else:  # numpy's pairwise sum over the contiguous block
            total = y.sum()
            sign = _sign(total, options, trials, node.site)
            cw[:] = sign
            bits, value = sign < 0, total / len(y)
        info[node.info] = bits
        if values is not None:
            values[node.info] = value

    cw = np.empty(params.n)
    # unscaled intermediates may reach inf, and inf - inf is NaN, which an
    # end node refuses
    with np.errstate(over="ignore", invalid="ignore"):
        walk(plotkin_tree(params.m, params.r, phi).root, y, cw)
    del walk  # it refers to itself: deleted, it frees what it holds now
    trace = None
    if values is not None:  # decode order is the lexicographic path order
        trace = dict(zip(enumerate_paths(params), values.tolist()))
    return DecodeResult(info, cw.astype(np.int8),
                        _op_count(params.m, params.r, phi, options.u_rule, options.v_rule),
                        trace)


def decode_psi(y: np.ndarray, params: CodeParams,
               options: DecoderOptions | None = None, trial: int = 0) -> DecodeResult:
    """Recursive decoding down to repetition and full-space end nodes."""
    return _decode_single(y, params, ALG_PSI, options, trial)


def decode_phi(y: np.ndarray, params: CodeParams,
               options: DecoderOptions | None = None, trial: int = 0) -> DecodeResult:
    """Recursive decoding that stops at first-order (biorthogonal) nodes."""
    return _decode_single(y, params, ALG_PHI, options, trial)


def extract_info_batch(codewords: np.ndarray, params: CodeParams) -> np.ndarray:
    """Info bits (B, k) of a (B, n) batch of clean +/-1 codewords of the code.

    They are the batch's psi decode: a codeword's sums are never zero, so
    the decode meets no tie and returns the codeword itself.  Raises
    ValueError unless every row decodes to itself, that is, unless every
    row is a codeword.
    """
    codewords = _rows(codewords, params.n, "a codeword", np.float64)
    info, decoded, _, _ = _decode(codewords, params, ALG_PSI, None, None)
    if not np.array_equal(decoded, codewords):
        raise ValueError(f"not a +/-1 codeword of {params}")
    return info


def codeword_to_info(codeword: np.ndarray, params: CodeParams) -> np.ndarray:
    """The k info bits of one clean +/-1 codeword of the code; raises
    ValueError for any other word."""
    return extract_info_batch(_rows(codeword, params.n, "a codeword", single=True), params)[0]


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


def genie_batch(y: np.ndarray, params: CodeParams, *,
                _work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Genie-aided recursion over a (B, n) batch, all-ones transmission.

    Every decoded constituent is replaced by its true (all-ones) value, so
    the recursion degenerates to pure dataflow: products on v steps and
    midpoints on u steps.  This is a psi decode forced to decide +1
    everywhere, through the decoder's walk and workspace (see
    :func:`_decode`).  Returns the (B, k) end values y(path) in path
    (lexicographic) order, as a traced decode records them, and the (B, s)
    half-block support sums, one column per order-1 split node in
    pre-order (see :func:`_support_nodes`).  The support sum of the node's
    codeword that flips the second half has the law of any other balanced
    support of that first-order node.  Both are float64, whatever the
    decode's dtype; `_work`, the decode's workspace, is private to the
    Monte Carlo harness (see :func:`_decode`).
    """
    sums = []
    _, _, _, values = _decode(y, params, ALG_PSI, None, None, supports=sums, work=_work)
    supports = np.empty((len(values), len(sums)))
    for j, column in enumerate(sums):
        supports[:, j] = column
    return values, supports

