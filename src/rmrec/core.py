"""Code parameters, the Plotkin tree and its information paths, and the encoder.

A codeword of the length-2^m, order-r binary Reed-Muller code is built by
repeatedly combining two shorter codewords u and v as (u, u+v).  In the
+/-1 symbol domain used throughout this package (binary a maps to (-1)^a)
the combination reads (u, u*v) componentwise.  Recursing on u and v leads
to end nodes that are either repetition codes {g,0} (one information bit)
or full spaces {h,h} (2^h information bits).

Each information bit is keyed by an m-bit descent path through that tree:
bit 0 steps to the v constituent (order drops by one), bit 1 steps to the
u constituent.  Paths ending at a repetition node carry a forced all-ones
suffix; paths ending at a full space carry a free suffix that selects one
of the node's 2^h bits.  The complete path set is exactly the m-bit
strings of Hamming weight >= m-r, ordered as binary numbers with the
first bit most significant.  Codeword positions are indexed the same way:
position p has coordinates x_1..x_m with x_1 the most significant bit.

The tree is built once per code by :func:`plotkin_tree` and shared by
every walk in the package: the encoder here, the decoders' walk in
:mod:`rmrec.decoder`, the two Plotkin descents, and :mod:`rmrec.analysis`,
which reads phi's weakest prefixes from the tree's first first-order
leaves and predicts errors in one pass over its leaves.  The tree's
`paths` are the code's paths; its first is the weakest one.  The
decoders' walk runs psi and phi, reads a clean codeword's info bits and,
forced to decide +1, runs the genie-aided recursion.
It fixes the shape of the descent, the info columns each node owns and
the decoder's tie sites.  Every entry point that takes blocks reads them
through :func:`_rows`: a 1-D block is one row, a 2-D one a batch of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from math import comb

import numpy as np

LEFT_END = "left"  # repetition end node {g, 0}
RIGHT_END = "right"  # full-space end node {h, h}
FIRST_ORDER = "first-order"  # biorthogonal end node {g+1, 1}, g >= 1
SPLIT = "split"  # internal node: the v child, then the u child

__all__ = [
    "LEFT_END",
    "RIGHT_END",
    "FIRST_ORDER",
    "SPLIT",
    "CodeParams",
    "Path",
    "PlotkinNode",
    "PlotkinTree",
    "plotkin_tree",
    "dimension",
    "enumerate_paths",
    "encode",
    "encode_batch",
    "encode_op_count",
]


@dataclass(frozen=True)
class CodeParams:
    """Parameters (m, r) of a Reed-Muller code; n, k, d follow from them."""

    m: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.r <= self.m:
            raise ValueError(f"r must lie in [0, {self.m}], got {self.r}")

    @property
    def n(self) -> int:
        """Code length 2^m."""
        return 1 << self.m

    @property
    def k(self) -> int:
        """Code dimension, the number of weight >= m-r binary m-strings."""
        return dimension(self.m, self.r)

    @property
    def d(self) -> int:
        """Minimum distance 2^(m-r)."""
        return 1 << (self.m - self.r)

    def __str__(self) -> str:
        return f"RM(m={self.m}, r={self.r})"


def dimension(m: int, r: int) -> int:
    """Dimension of the {m, r} code: sum of C(m, i) for i = 0..r."""
    return sum(comb(m, i) for i in range(r + 1))


@dataclass(frozen=True, order=True)
class Path:
    """One m-bit descent through the Plotkin tree, keying one information bit.

    Paths sort lexicographically on their bits (first bit most
    significant), which is both the information-bit order and the order in
    which the recursive decoders finalize decisions.
    """

    bits: tuple[int, ...]
    kind: str = field(compare=False)
    end_size: int = field(compare=False)  # g of the {g,0} end, or h of the {h,h} end

    @property
    def descent(self) -> tuple[int, ...]:
        """The prefix of genuine tree steps, up to (excluding) the end node."""
        return self.bits[: len(self.bits) - self.end_size]

    def node_label(self) -> str:
        return f"{{{self.end_size},0}}" if self.kind == LEFT_END else f"{{{self.end_size},{self.end_size}}}"

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class PlotkinNode:
    """One node {length_log, order} of a Plotkin tree.

    kind is LEFT_END, RIGHT_END, FIRST_ORDER or SPLIT; prefix holds the
    descent bits from the root.  The node owns the info columns in `info`,
    which hold the bits of `paths`, and its end nodes resolve sign ties at
    consecutive sites starting at `site`: one site per symbol at a full
    space, one at a repetition or first-order node.  A split node has the
    children (v, u).
    """

    kind: str
    prefix: tuple[int, ...]
    length_log: int
    order: int
    info: slice
    site: int
    paths: tuple[Path, ...]
    children: tuple[PlotkinNode, ...] = ()


@dataclass(frozen=True)
class PlotkinTree:
    """The Plotkin tree of one code under one stopping rule.

    `nodes` lists every node before its children and each v child before
    its u sibling, which is both the lexicographic path order and the order
    in which the recursive decoders reach the nodes; `leaves` holds its end
    nodes, whose info slices tile [0, k).  Its `paths` are exactly the
    m-bit strings of weight >= m-r, each once, in lexicographic order.
    """

    root: PlotkinNode
    nodes: tuple[PlotkinNode, ...]
    leaves: tuple[PlotkinNode, ...]

    @property
    def paths(self) -> tuple[Path, ...]:
        """All k paths in lexicographic order."""
        return self.root.paths


def plotkin_tree(m: int, r: int, first_order_ends: bool = False) -> PlotkinTree:
    """The cached Plotkin tree of {m, r}.

    A 0 (v) step lowers both the remaining length and the order, a 1 (u)
    step only the length.  The descent stops at order zero (repetition
    node, the remaining path bits are forced ones) or when the order meets
    the remaining length (full space, remaining bits free).  With
    first_order_ends it also stops at the first-order nodes {g+1, 1},
    g >= 1, which the phi decoder decodes whole; the kinds and end sizes of
    the paths always follow the first two rules.
    """
    return _plotkin_tree(m, r, bool(first_order_ends))


@cache
def _plotkin_tree(m: int, r: int, first_order_ends: bool) -> PlotkinTree:
    CodeParams(m, r)  # validates the order
    root, _ = _build((), m, r, first_order_ends, 0, 0)
    nodes = tuple(_preorder(root))
    return PlotkinTree(root, nodes, tuple(node for node in nodes if node.kind != SPLIT))


def _build(prefix: tuple[int, ...], length_log: int, order: int, first_order_ends: bool,
           start: int, site: int) -> tuple[PlotkinNode, int]:
    """The subtree at prefix with its first info column and tie site;
    returns it with the next free tie site."""

    def end(kind: str, paths: tuple[Path, ...], sites: int) -> tuple[PlotkinNode, int]:
        info = slice(start, start + len(paths))
        return PlotkinNode(kind, prefix, length_log, order, info, site, paths), site + sites

    if order == 0:
        return end(LEFT_END, (Path(prefix + (1,) * length_log, LEFT_END, length_log),), 1)
    if order == length_log:
        return end(RIGHT_END, tuple(Path(prefix + suffix, RIGHT_END, length_log)
                                    for suffix in product((0, 1), repeat=length_log)),
                   1 << length_log)
    if first_order_ends and order == 1:
        return end(FIRST_ORDER, _build(prefix, length_log, 1, False, start, site)[0].paths, 1)
    v, site_u = _build(prefix + (0,), length_log - 1, order - 1, first_order_ends, start, site)
    u, site_end = _build(prefix + (1,), length_log - 1, order, first_order_ends,
                         v.info.stop, site_u)
    return PlotkinNode(SPLIT, prefix, length_log, order, slice(start, u.info.stop), site,
                       v.paths + u.paths, (v, u)), site_end


def _preorder(node: PlotkinNode):
    yield node
    for child in node.children:
        yield from _preorder(child)


def enumerate_paths(params: CodeParams) -> tuple[Path, ...]:
    """All k information paths of the code, lexicographically sorted."""
    return plotkin_tree(params.m, params.r).paths


def _memory_order(block: np.ndarray) -> str:
    """"F" for a symbol-major (B, n) block, one that is F-contiguous and not
    C-contiguous; "C" for any other."""
    return "F" if block.flags.f_contiguous and not block.flags.c_contiguous else "C"


def _rows(block: np.ndarray, width: int, what: str, dtype: type | None = None,
          single: bool = False) -> np.ndarray:
    """`block` as a (B, width) array of `dtype` (its own if None), a 1-D
    block being one row; a `single` block must be 1-D.  Raises ValueError,
    naming the block `what`, for any other shape."""
    block = np.asarray(block, dtype=dtype)
    if block.ndim not in ((1,) if single else (1, 2)) or block.shape[-1] != width:
        rows = "" if single else f" or (B, {width})"
        raise ValueError(f"{what} must be 1-D of length {width}{rows}, not shape {block.shape}")
    return block[None] if block.ndim == 1 else block


def _encode(node: PlotkinNode, info: np.ndarray, out: np.ndarray) -> None:
    # writes the +/-1 codeword of the node's info columns into the
    # symbol-first view out, (2^length_log, B)
    if node.kind == SPLIT:
        v, u = node.children
        half = out.shape[0] // 2
        _encode(v, info, out[half:])
        _encode(u, info, out[:half])
        out[half:] *= out[:half]  # (u, u*v)
    else:  # a repetition node broadcasts its single bit
        out[:] = 1 - 2 * info[:, node.info].T


def encode_batch(info: np.ndarray, params: CodeParams) -> np.ndarray:
    """Encode a (B, k) block of information bits, or one 1-D row, into
    (B, n) int8 +/-1 symbols.

    The codewords come back in the memory order of the info block: an
    F-ordered (symbol-major) block gives F-ordered codewords, anything
    else C-ordered ones.
    """
    info = _rows(info, params.k, "an info block")
    if info.size and not np.all((info == 0) | (info == 1)):
        raise ValueError("info bits must be 0 or 1")
    info = info.astype(np.int8, copy=False)  # keeps the memory order
    out = np.empty((info.shape[0], params.n), np.int8, order=_memory_order(info))
    _encode(plotkin_tree(params.m, params.r).root, info, out.T)
    return out


def encode(info: np.ndarray, params: CodeParams) -> np.ndarray:
    """Encode k information bits (lexicographic path order) into n int8
    +/-1 symbols."""
    info = _rows(info, params.k, "an info block", single=True)
    return encode_batch(info, params)[0]


def encode_op_count(params: CodeParams) -> int:
    """Symbol multiplications performed by the encoder: one length-n/2
    product u*v per split node.  End nodes need no arithmetic."""
    return sum(1 << (node.length_log - 1)
               for node in plotkin_tree(params.m, params.r).nodes if node.kind == SPLIT)

