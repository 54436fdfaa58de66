import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmrec
from rmrec import (
    LEFT_END,
    RIGHT_END,
    CodeParams,
    codeword_to_info,
    dimension,
    encode,
    encode_batch,
    encode_op_count,
    enumerate_paths,
)
from rmrec.core import plotkin_tree
from rmrec.decoder import extract_info_batch

from oracles import encode_oracle, generator_rows, pack_rows, packed_codebook, popcount


@pytest.mark.parametrize("m,r,n,k,d", [
    (7, 2, 128, 29, 32),
    (8, 3, 256, 93, 32),
    (8, 2, 256, 37, 64),
    (5, 0, 32, 1, 32),
    (1, 1, 2, 2, 1),
])
def test_code_params(m, r, n, k, d):
    params = CodeParams(m, r)
    assert (params.n, params.k, params.d) == (n, k, d)


def test_params_reject_bad_orders():
    with pytest.raises(ValueError):
        CodeParams(3, -1)
    with pytest.raises(ValueError):
        CodeParams(2, 3)
    with pytest.raises(ValueError):
        CodeParams(0, 0)


@pytest.mark.parametrize("m,r", [(4, 2), (6, 3), (9, 1), (10, 10)])
def test_dimension_counts_heavy_strings(m, r):
    heavy = sum(1 for v in range(1 << m) if bin(v).count("1") >= m - r)
    assert dimension(m, r) == heavy


def test_enumerate_paths_3_1():
    paths = enumerate_paths(CodeParams(3, 1))
    assert [str(p) for p in paths] == ["011", "101", "110", "111"]
    assert [(p.kind, p.end_size) for p in paths] == [
        (LEFT_END, 2), (LEFT_END, 1), (RIGHT_END, 1), (RIGHT_END, 1)]


def test_enumerate_paths_repetition_code():
    (only,) = enumerate_paths(CodeParams(6, 0))
    assert only.bits == (1,) * 6
    assert only.kind == LEFT_END and only.end_size == 6


def _end_by_rule(bits: tuple[int, ...], r: int) -> tuple[str, int]:
    # first point of the descent with r zeros (left) or with the remaining
    # length equal to the remaining order (right)
    m = len(bits)
    for i in range(m + 1):
        zeros = i - sum(bits[:i])
        if zeros == r:
            return LEFT_END, m - i
        if m - i == r - zeros:
            return RIGHT_END, m - i
    raise AssertionError("the descent must stop")


@pytest.mark.parametrize("m", range(1, 11))
def test_path_count_and_order(m):
    strings = [tuple((v >> (m - 1 - i)) & 1 for i in range(m)) for v in range(1 << m)]
    for r in range(m + 1):
        params = CodeParams(m, r)
        paths = enumerate_paths(params)
        assert len(paths) == params.k
        heavy = [bits for bits in strings if sum(bits) >= m - r]
        assert [p.bits for p in paths] == heavy  # lexicographic order
        for p in paths:
            assert (p.kind, p.end_size) == _end_by_rule(p.bits, r)
        for first_order_ends in (False, True):
            tree = plotkin_tree(m, r, first_order_ends)
            assert tree is plotkin_tree(m, r, first_order_ends) and tree.paths == paths
            leaves = tree.leaves
            assert sum((leaf.paths for leaf in leaves), ()) == paths
            assert [leaf.info.start for leaf in leaves] == [0] + [leaf.info.stop
                                                                 for leaf in leaves[:-1]]
            assert leaves[-1].info.stop == params.k
            sites = [1 << leaf.length_log if leaf.kind == RIGHT_END else 1 for leaf in leaves]
            assert [leaf.site for leaf in leaves] == [sum(sites[:i]) for i in range(len(leaves))]
        with pytest.raises(FrozenInstanceError):
            tree.leaves = ()  # cached trees are read-only


def test_tree_paths_are_only_the_heavy_strings():
    bits = {path.bits for path in plotkin_tree(3, 1).paths}
    assert bits == {(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
    assert (0, 1, 0) not in bits  # weight too low
    assert (0, 1) not in bits  # wrong length
    assert (0, 2, 1) not in bits


def test_path_accessors():
    params = CodeParams(5, 2)
    by_bits = {path.bits: path for path in plotkin_tree(5, 2).paths}
    left = by_bits[(0, 1, 0, 1, 1)]
    assert left.kind == LEFT_END and left.end_size == 2
    assert left.descent == (0, 1, 0) and left.bits[len(left.bits) - left.end_size:] == (1, 1)
    right = by_bits[(1, 1, 1, 0, 1)]
    assert right.kind == RIGHT_END and right.end_size == 2
    assert right.descent == (1, 1, 1) and right.bits[len(right.bits) - right.end_size:] == (0, 1)
    # the free suffix 01 selects column 1 of its full-space leaf
    leaf = next(leaf for leaf in plotkin_tree(5, 2).leaves if right in leaf.paths)
    assert enumerate_paths(params).index(right) - leaf.info.start == 1


def test_encode_zero_and_monomial():
    params = CodeParams(3, 1)
    assert np.all(encode(np.zeros(4, dtype=np.uint8), params) == 1)
    got = encode(np.array([1, 0, 0, 0], dtype=np.uint8), params)
    assert np.array_equal(got, [1, 1, 1, 1, -1, -1, -1, -1])


def test_encode_validation():
    params = CodeParams(3, 1)
    with pytest.raises(ValueError):
        encode(np.zeros(5, dtype=np.uint8), params)
    with pytest.raises(ValueError):
        encode(np.array([0, 2, 0, 0]), params)


def test_encode_linearity():
    rng = np.random.default_rng(1)
    for m, r in [(4, 2), (6, 3), (7, 5)]:
        params = CodeParams(m, r)
        a = rng.integers(0, 2, params.k).astype(np.uint8)
        b = rng.integers(0, 2, params.k).astype(np.uint8)
        assert np.array_equal(encode(a ^ b, params),
                              encode(a, params) * encode(b, params))


@pytest.mark.parametrize("m", range(1, 6))
def test_encoder_matches_generator_oracle(m):
    # Basis vectors pin every generator row; random blocks exercise sums.
    rng = np.random.default_rng(m)
    for r in range(m + 1):
        params = CodeParams(m, r)
        basis = np.eye(params.k, dtype=np.uint8)
        assert np.array_equal(encode_batch(basis, params).astype(np.int8),
                              encode_oracle(basis, params))
        block = rng.integers(0, 2, (64, params.k)).astype(np.uint8)
        assert np.array_equal(encode_batch(block, params).astype(np.int8),
                              encode_oracle(block, params))


def test_info_roundtrip():
    rng = np.random.default_rng(2)
    for m, r in [(3, 1), (5, 2), (8, 3), (6, 6), (7, 1)]:
        params = CodeParams(m, r)
        info = rng.integers(0, 2, params.k).astype(np.uint8)
        assert np.array_equal(codeword_to_info(encode(info, params), params), info)


def test_codeword_to_info_rejects_non_codewords():
    params = CodeParams(4, 1)
    info = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    codeword = encode(info, params)
    assert np.array_equal(codeword_to_info(codeword, params), info)
    for j in (0, 7, 15):  # one flipped symbol leaves the code (d = 8)
        flipped = codeword.copy()
        flipped[j] = -flipped[j]
        with pytest.raises(ValueError, match="codeword"):
            codeword_to_info(flipped, params)
    for bad in (0, 0.5, 2, np.nan, np.inf):
        word = codeword.astype(np.float64)
        word[3] = bad
        with pytest.raises(ValueError, match="codeword"):
            codeword_to_info(word, params)
    for wrong in (codeword[:8], np.tile(codeword, 2), codeword[None, :]):
        with pytest.raises(ValueError, match="length"):
            codeword_to_info(wrong, params)
    book = encode_batch(np.eye(params.k, dtype=np.uint8), params)
    book[2, 5] = -book[2, 5]  # one bad row fails the batch
    with pytest.raises(ValueError, match="codeword"):
        extract_info_batch(book, params)


@st.composite
def _info_blocks(draw):
    """A code with m <= 10, a (B, k) info block with 1 <= B <= 40, and a memory order."""
    m = draw(st.integers(1, 10))
    r = draw(st.integers(0, m))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    order = draw(st.sampled_from("CF"))
    params = CodeParams(m, r)
    info = np.random.default_rng(seed).integers(0, 2, (rows, params.k), dtype=np.uint8)
    return params, np.asarray(info, order=order)


@settings(max_examples=200, deadline=None)
@given(case=_info_blocks())
def test_encode_batch_roundtrip_and_rows(case):
    params, info = case
    codewords = encode_batch(info, params)
    assert codewords.shape == (info.shape[0], params.n)
    assert np.array_equal(extract_info_batch(codewords, params), info)
    for row, codeword in zip(info, codewords):
        assert np.array_equal(encode(row, params), codeword)


def test_exhaustive_distance_small():
    for m in range(1, 5):
        for r in range(m + 1):
            params = CodeParams(m, r)
            book = packed_codebook(params)
            weights = popcount(book)
            assert int(weights[1:].min()) == params.d
            assert len(book) == 1 << params.k


def test_plotkin_split_small():
    for m in range(2, 5):
        for r in range(1, m + 1):
            params = CodeParams(m, r)
            half = params.n // 2
            # at r = m the u constituent already spans the full half-space
            u_book = set(packed_codebook(CodeParams(m - 1, min(r, m - 1))).tolist())
            v_book = set(packed_codebook(CodeParams(m - 1, r - 1)).tolist())
            for word in packed_codebook(params):
                first = int(word) >> half
                second = int(word) & ((1 << half) - 1)
                assert first in u_book
                assert (first ^ second) in v_book


def test_codeword_group_structure():
    params = CodeParams(4, 2)
    book = packed_codebook(params)
    rng = np.random.default_rng(3)
    members = set(book.tolist())
    picks = rng.integers(0, len(book), (200, 2))
    for i, j in picks:
        assert int(book[i] ^ book[j]) in members  # product closure in +/-1 domain


def test_encode_op_count_bound_and_structure():
    def internal_halves(s, order):
        if order == 0 or order == s:
            return 0
        return (internal_halves(s - 1, order - 1) + internal_halves(s - 1, order)
                + (1 << (s - 1)))

    for m in range(1, 13):
        for r in range(m + 1):
            params = CodeParams(m, r)
            ops = encode_op_count(params)
            assert ops == internal_halves(m, r)
            assert ops <= params.n * min(r, m - r)


def test_generator_rows_are_independent():
    # sanity on the oracle itself: k distinct rows spanning 2^k words
    params = CodeParams(4, 2)
    rows = pack_rows(generator_rows(params))
    assert len(set(rows.tolist())) == params.k
    assert len(set(packed_codebook(params).tolist())) == 1 << params.k


def test_version_matches_pyproject():
    # read with a regex: tomllib needs Python 3.11, the package supports 3.10
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared and declared.group(1) == rmrec.__version__
