import threading
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrec import (
    Channel,
    CodeParams,
    DecoderOptions,
    SimConfig,
    decode_batch,
    decode_op_bound,
    decode_phi,
    decode_psi,
    encode,
    encode_batch,
    enumerate_paths,
    hadamard_transform,
    md_biorthogonal,
    path_statistics,
    run_wer,
)
from rmrec import decoder
from rmrec.core import FIRST_ORDER, LEFT_END, RIGHT_END, SPLIT, plotkin_tree
from rmrec.decoder import (
    MIN_SUM,
    PRODUCT,
    SCALED,
    TIE_POSITIVE,
    TIE_RANDOM,
    UNSCALED,
    _first_order_bits,
    _hadamard_factors,
    _tie_signs,
    biorthogonal_codeword,
    codeword_to_info,
    extract_info_batch,
    genie_batch,
)

from oracles import (
    brute_codebook,
    butterfly_fht,
    md_oracle,
    op_bound_oracle,
    op_count_oracle,
    popcount,
)

DET = DecoderOptions(tie_rule=TIE_POSITIVE)


def _traced(y, params, options=DET, decode=decode_psi, trial=0):
    """(end values, decisions) of one traced decode, in path order."""
    result = decode(np.asarray(y, dtype=np.float64), params, replace(options, trace=True),
                    trial=trial)
    return np.array(list(result.trace.values())), 1 - 2 * result.info.astype(np.int64)


def _steps(y1, y2, options=DET):
    """One v step and one u step, read off a traced psi decode of {2,1}:
    the end value of its v path 01, a {1,0} repetition, is the mean of the v
    estimate, and the end values of its u paths 10 and 11, the {1,1} full
    space, are the u estimate.  Returns (v mean, v decision, u estimate)."""
    values, decisions = _traced(np.concatenate([y1, y2]), CodeParams(2, 1), options)
    return values[0], decisions[0], values[1:]


def test_recalc_v_product():
    # dyadic entries: every product, sum and mean below is exact
    v_mean, v_hat, _ = _steps([0.5, 0.25], [0.75, -1.0])
    assert v_mean == (0.375 - 0.25) / 2 and v_hat == 1
    v_mean, v_hat, _ = _steps([1.0, -1.0], [-1.0, -0.5])  # v = [-1, 0.5]
    assert v_mean == -0.25 and v_hat == -1


def test_recalc_v_min_sum():
    options = replace(DET, v_rule=MIN_SUM)
    # sign(y1*y2) * min(|y1|, |y2|) = [0.5, -0.25], not the product [0.375, -0.25]
    v_mean, v_hat, _ = _steps([0.5, 0.25], [0.75, -1.0], options)
    assert v_mean == (0.5 - 0.25) / 2 and v_hat == 1
    v_mean, _, _ = _steps([-0.25, 0.5], [0.75, -1.0], options)  # [-0.25, -0.5]
    assert v_mean == -0.375


def test_recalc_u_rules():
    # v_hat = -1: v = [0.125, -0.5] sums below zero
    _, v_hat, u = _steps([0.25, -1.0], [0.5, 0.5])
    assert v_hat == -1 and np.array_equal(u, [(0.25 - 0.5) / 2, (-1.0 - 0.5) / 2])
    _, _, unscaled = _steps([0.25, -1.0], [0.5, 0.5], replace(DET, u_rule=UNSCALED))
    assert np.array_equal(unscaled, 2 * u)
    # equal halves: v = y*y > 0, v_hat = +1, and the midpoint is y itself
    y = np.array([0.3, -0.7])
    assert np.array_equal(_steps(y, y)[2], y)
    _, v_hat, u = _steps([1.0, -1.0], [-1.0, 1.0])  # a clean codeword's u
    assert v_hat == -1 and np.array_equal(u, [1.0, -1.0])


def test_scaled_recalcs_preserve_unit_range():
    # scaled v and u steps map [-1, +1] into itself, so every end value of
    # a [-1, +1] input (means, full-space inputs, correlations over w) does
    rng = np.random.default_rng(18)
    for m, r in [(2, 1), (6, 2), (6, 3), (8, 4)]:
        params = CodeParams(m, r)
        for v_rule in (PRODUCT, MIN_SUM):
            for decode in (decode_psi, decode_phi):
                for trial in range(20):
                    y = rng.uniform(-1, 1, params.n)
                    values, _ = _traced(y, params, DecoderOptions(v_rule=v_rule), decode, trial)
                    assert np.all(np.abs(values) <= 1.0)


def test_md_repetition():
    # a {2,0} root decides the sign of its block's sum; its end value is the mean
    params = CodeParams(2, 0)
    values, decisions = _traced([0.5, -0.2, 0.3, 0.1], params)
    assert decisions.tolist() == [1] and values[0] == pytest.approx(0.175)
    result = decode_psi(np.array([-1.0, -1.0, -1.0, 1.0]), params)
    assert result.info.tolist() == [1] and np.all(result.codeword == -1)


def test_md_repetition_ties():
    # a block whose sum is exactly zero: +1 under TIE_POSITIVE, else a coin
    # that is fair across trials and a pure function of (seed, trial, site)
    trials = np.arange(2000, dtype=np.uint64)
    for m in (1, 2):
        params = CodeParams(m, 0)
        tied = np.tile([1.0, -1.0], params.n // 2)
        values, decisions = _traced(tied, params)
        assert decisions.tolist() == [1] and values.tolist() == [0.0]
        _, cw, _ = decode_batch(np.tile(tied, (2000, 1)), params, "psi", trials=trials)
        flips = cw[:, 0]
        assert np.all(cw == flips[:, None])
        assert 0.45 < np.mean(flips == 1) < 0.55
        assert np.array_equal(flips, _tie_signs(0, trials, np.zeros(2000, dtype=np.uint64)))
        again = [decode_psi(tied, params, trial=t).codeword[0] for t in range(0, 2000, 97)]
        assert again == flips[::97].tolist()  # and reproducible, one block at a time


def test_md_full_space():
    # a {h,h} root decides every symbol by its sign, exact MD for a full space
    assert np.array_equal(decode_psi(np.array([0.3, -0.2]), CodeParams(1, 1)).codeword, [1, -1])
    rng = np.random.default_rng(0)
    for h in (1, 2, 3):
        params = CodeParams(h, h)
        z = rng.normal(size=params.n)
        result = decode_psi(z, params)
        assert np.array_equal(result.codeword, np.sign(z))
        assert float(result.codeword @ z) == pytest.approx(np.abs(z).sum())
        assert np.array_equal(result.info, z < 0)
        assert np.all(decode_psi(np.zeros(params.n), params, DET).codeword == 1)
        # a zero at symbol j takes the coin of site j
        z[::2] = 0.0
        for trial in range(8):
            got = decode_psi(z, params, DecoderOptions(tie_seed=5), trial=trial).codeword
            coins = _tie_signs(5, np.full(params.n, trial, dtype=np.uint64),
                               np.arange(params.n, dtype=np.uint64))
            assert np.array_equal(got, np.where(z == 0, coins, np.sign(z)))


# entry point: (block width, whether it takes one 1-D block only, call);
# the encoders take {3,1} info bits, the decoders its received words
_P31 = CodeParams(3, 1)
_ENTRIES = {
    "encode_batch": (4, False, lambda x: encode_batch(x, _P31)),
    "encode": (4, True, lambda x: encode(x, _P31)),
    "decode_batch": (8, False, lambda x: decode_batch(x, _P31, "phi")),
    "decode_psi": (8, True, lambda x: decode_psi(x, _P31)),
    "decode_phi": (8, True, lambda x: decode_phi(x, _P31)),
    "genie_batch": (8, False, lambda x: genie_batch(x, _P31)),
    "extract_info_batch": (8, False, lambda x: extract_info_batch(x, _P31)),
    "codeword_to_info": (8, True, lambda x: codeword_to_info(x, _P31)),
    "md_biorthogonal": (8, True, lambda x: md_biorthogonal(x, 2)),
}
_SHAPES = {"(B, n, 1)": lambda n: (2, n, 1), "0-D": lambda n: (), "(1, n)": lambda n: (1, n)}


@pytest.mark.parametrize("entry, shape", [(entry, shape) for entry in _ENTRIES for shape in _SHAPES
                                          if _ENTRIES[entry][1] or shape != "(1, n)"])
def test_entry_points_take_rows_or_one_block(entry, shape):
    # every entry point reads a 1-D block as one row; a batch entry takes
    # (B, n) rows and a single-block entry nothing else, whatever its values
    width, single, call = _ENTRIES[entry]
    fill = 0 if entry.startswith("encode") else 1.0
    call(np.full(width, fill))
    if not single:
        call(np.full((3, width), fill))
    with pytest.raises(ValueError, match="length"):
        call(np.full(_SHAPES[shape](width), fill))


def test_trial_indices_are_non_negative_integers():
    y = np.ones((2, 8))
    for trials in ([-1, 0], [0.5, 1.0], [0], [0, 1, 2], [[0, 1]]):
        with pytest.raises(ValueError, match="trials"):
            decode_batch(y, _P31, "phi", trials=np.array(trials))
    for trial in (-1, 0.5, 2 ** 64, [0, 1]):
        with pytest.raises(ValueError, match="trials"):
            decode_psi(y[0], _P31, trial=trial)
        with pytest.raises(ValueError, match="trials"):
            md_biorthogonal(y[0], 2, trial=trial)
    # the largest index is a trial like any other, and a row's default
    # index is its own; an all-zero word leaves the tie coin its sign
    zero = np.zeros((2, 8))
    _, codewords, _ = decode_batch(zero, _P31, "phi", trials=np.array([0, 2 ** 64 - 1], np.uint64))
    assert np.array_equal(codewords[1], decode_phi(zero[1], _P31, trial=2 ** 64 - 1).codeword)
    _, codewords, _ = decode_batch(zero, _P31, "phi")
    assert np.array_equal(codewords[1], decode_phi(zero[1], _P31, trial=1).codeword)


def test_md_end_nodes_reject_batches():
    # a (B, n) array is a batch, not one block of B*n symbols
    for decide in (lambda z: decode_psi(z, CodeParams(2, 0)),
                   lambda z: decode_psi(z, CodeParams(2, 2)),
                   lambda z: decode_phi(z, CodeParams(2, 1)),
                   lambda z: md_biorthogonal(z, 1)):
        with pytest.raises(ValueError):
            decide(np.ones((2, 4)))


@pytest.mark.parametrize("g", range(1, 9))
def test_md_biorthogonal_decides_as_phi_on_its_code(g):
    # md_biorthogonal is the decision of phi's root step on {g+1, 1}: the
    # same codeword and info bits, on Gaussian blocks and on a block whose
    # correlations are all zero, a tie that the coin resolves at site 0
    params = CodeParams(g + 1, 1)
    rng = np.random.default_rng(720 + g)
    blocks = np.vstack([rng.normal(size=(4, params.n)), np.zeros((1, params.n))])
    for options in (DET, DecoderOptions(tie_seed=13)):
        ties = set()
        for z in blocks:
            for trial in range(6):
                cw, info = md_biorthogonal(z, g, options, trial=trial)
                single = decode_phi(z, params, options, trial=trial)
                assert np.array_equal(cw, single.codeword) and np.array_equal(info, single.info)
                if not z.any():
                    ties.add(int(cw[0]))
        assert ties == ({1} if options is DET else {-1, 1})


def test_md_biorthogonal_examples():
    cw, info = md_biorthogonal(np.ones(4), 1)
    assert np.all(cw == 1) and np.all(info == 0)
    cw, _ = md_biorthogonal(np.array([0.9, 0.8, -0.7, -0.6]), 1)
    assert np.array_equal(cw, [1, 1, -1, -1])
    with pytest.raises(ValueError):
        md_biorthogonal(np.ones(6), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        md_biorthogonal(np.ones(1), -1)


def test_md_biorthogonal_refuses_nan():
    # a NaN, or inf - inf in the transform, makes the winning correlation
    # NaN: refused as decode_psi and decode_phi refuse it, not returned as
    # a word that is no codeword, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in ([np.nan, 1, 1, 1], [np.inf, -np.inf, 1, 1]):
            with pytest.raises(ValueError, match="NaN"):
                md_biorthogonal(np.array(z), 1)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_md_biorthogonal_matches_brute_force(g):
    rng = np.random.default_rng(100 + g)
    book = brute_codebook(g)
    for _ in range(300):
        z = rng.normal(size=1 << (g + 1))
        cw, info = md_biorthogonal(z, g)
        assert np.array_equal(cw, md_oracle(z, book).astype(np.int8))
        assert np.array_equal(encode(info, CodeParams(g + 1, 1)), cw)


def _first_order_blocks(book: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """Gaussian rows, rows whose two top correlations have equal magnitude,
    and the all-zero row, for a first-order code with codebook `book`; with
    the winning (pattern, sign) that each tied row must decode to."""
    width = book.shape[1]
    tied, winners = [], []
    for _ in range(12):
        # patterns p < q at +/-w and a third at +/-w/2 (when there is one):
        # dyadic entries, so every transform of these rows is exact
        p, q, *rest = np.sort(rng.choice(width, min(width, 3), replace=False))
        signs = rng.choice([-1.0, 1.0], 3)
        row = signs[0] * book[2 * p] + signs[1] * book[2 * q]
        if rest:
            row += 0.5 * signs[2] * book[2 * rest[0]]
        tied.append(row)
        winners.append((p, signs[0]))
    blocks = np.vstack([rng.normal(size=(8, width)), tied, np.zeros((1, width))])
    return blocks, winners


@pytest.mark.parametrize("g", range(11))
def test_first_order_decisions_match_brute_force(g):
    # every first-order width the benchmark decodes (4 .. 2048) and width 2,
    # with ties between the top two patterns and an all-zero block
    rng = np.random.default_rng(300 + g)
    book = brute_codebook(g)
    params = CodeParams(g + 1, 1)
    blocks, winners = _first_order_blocks(book, rng)
    trials = np.arange(len(blocks), dtype=np.uint64) + 40
    for j, (p, sign) in enumerate(winners):  # the lowest tied pattern wins
        assert np.array_equal(md_biorthogonal(blocks[8 + j], g, DET)[0], sign * book[2 * p])
    seed = 7
    tie_signs = _tie_signs(seed, trials, np.zeros(len(trials), dtype=np.uint64))
    for options in (DET, DecoderOptions(tie_seed=seed)):
        decoded = [md_biorthogonal(z, g, options, trial=int(t)) for z, t in zip(blocks, trials)]
        for j, (cw, info) in enumerate(decoded):
            assert np.array_equal(encode(info, params), cw)
            if j < len(blocks) - 1 or options is DET:
                assert np.array_equal(cw, md_oracle(blocks[j], book))
        # the all-zero block: pattern 0, its sign from the tie rule at site 0
        assert np.all(decoded[-1][0] == (1 if options is DET else tie_signs[-1]))
        if g == 0:  # phi decodes {1,1} as a full space, not as a first-order node
            continue
        info, cw, _ = decode_batch(blocks, params, "phi", options, trials)
        info_f, cw_f, _ = decode_batch(np.asfortranarray(blocks), params, "phi", options, trials)
        assert np.array_equal(info_f, info) and np.array_equal(cw_f, cw)
        for j, (md_cw, md_info) in enumerate(decoded):
            single = decode_phi(blocks[j], params, options, trial=int(trials[j]))
            assert np.array_equal(single.info, info[j]) and np.array_equal(md_info, info[j])
            assert np.array_equal(single.codeword, cw[j]) and np.array_equal(md_cw, cw[j])
    assert set(tie_signs) == {-1.0, 1.0}  # the coins cover both signs


@pytest.mark.parametrize("m", [3, 6, 12])
def test_first_order_zero_blocks_take_signs_at_their_sites(m):
    # an all-zero {m,2} block reaches every first-order node as zeros; each
    # node decodes pattern 0 with the tie sign of its own site
    params = CodeParams(m, 2)
    nodes = [node for node in plotkin_tree(m, 2, True).nodes if node.kind == FIRST_ORDER]
    for trial in range(6):
        result = decode_phi(np.zeros(params.n), params, DecoderOptions(tie_seed=3), trial=trial)
        sites = np.array([node.site for node in nodes], dtype=np.uint64)
        signs = _tie_signs(3, np.full(len(nodes), trial, dtype=np.uint64), sites)
        for node, sign in zip(nodes, signs):
            bits = result.info[node.info]
            assert not bits[:-2].any() and list(bits[-2:]) == [sign < 0] * 2
        assert np.array_equal(result.codeword, encode(result.info, params))
        positive = decode_phi(np.zeros(params.n), params, DET, trial=trial)
        assert np.all(positive.info == 0) and np.all(positive.codeword == 1)


def test_first_order_tables_read_only_and_results_fresh():
    for g in range(12):
        _, _, h_a, h_b = _hadamard_factors(1 << g)
        for table in (h_a, h_b, _first_order_bits(1 << g)):
            assert not table.flags.writeable
    y = np.random.default_rng(18).normal(size=(3, 64))
    params = CodeParams(6, 2)

    def results():
        single = decode_phi(y[0], params)
        return [single.info, single.codeword, *md_biorthogonal(y[0, :16], 3),
                *decode_batch(y, params, "phi")[:2],
                *decode_batch(np.asfortranarray(y), params, "phi")[:2]]

    first = results()
    expected = [result.copy() for result in first]
    for result in first:
        assert result.flags.writeable
        result[...] = 7  # no decoded bit or symbol is 7
    for result, again in zip(expected, results()):
        assert np.array_equal(again, result)


@pytest.mark.parametrize("m, r", [(m, r) for m in range(1, 9) for r in range(m + 1)])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
       zeros=st.sampled_from([0.0, 0.1, 0.5]), tie_seed=st.integers(0, 2**16))
def test_scaled_and_unscaled_agree_on_dyadic_input(m, r, seed, rows, zeros, tie_seed):
    # the unscaled rule differs from the scaled one by a power of two per
    # node, which changes no rounding, tie or decision; entries k/2^j
    # (|k| <= 4, j <= 3) with exact zeros keep every product far from
    # underflow and overflow
    params = CodeParams(m, r)
    rng = np.random.default_rng(seed)
    shape = (rows, params.n)
    y = rng.integers(-4, 5, size=shape) / 2.0 ** rng.integers(0, 4, size=shape)
    y[rng.uniform(size=shape) < zeros] = 0.0
    for algorithm in ("psi", "phi") if r >= 1 else ("psi",):
        for v_rule in (PRODUCT, MIN_SUM):
            scaled = decode_batch(y, params, algorithm, DecoderOptions(v_rule=v_rule, tie_seed=tie_seed))
            unscaled = decode_batch(y, params, algorithm,
                                    DecoderOptions(UNSCALED, v_rule, tie_seed=tie_seed))
            assert np.array_equal(scaled[0], unscaled[0])
            assert np.array_equal(scaled[1], unscaled[1])


@pytest.mark.parametrize("g", range(10))
def test_biorthogonal_codebook_structure(g):
    # the rows of the Hadamard matrix and their negations, interleaved, are
    # the first-order codebook in tie-breaking order: the all-ones word, its
    # negation, then the +/- pair of every balanced pattern
    width = 1 << (g + 1)
    rows = biorthogonal_codeword(np.arange(width), width)
    for past in (width, -1, -width):  # negative indices do not wrap
        with pytest.raises(IndexError):
            biorthogonal_codeword(past, width)
    for bad_width in (0, 3, 3 * width):
        with pytest.raises(ValueError, match="power of two"):
            biorthogonal_codeword(0, bad_width)
    assert np.array_equal(biorthogonal_codeword(width - 1, width), rows[-1:])
    book = np.stack([rows, -rows], axis=1).reshape(2 * width, width)
    assert np.array_equal(book, brute_codebook(g))
    assert np.all(book[0] == 1) and np.array_equal(book[1], -book[0])
    supports = (book < 0).sum(axis=1)
    assert np.all(supports[2:] == 1 << g)
    gram = book @ book.T  # distinct rows correlate at 0 or -l (antipodes)
    off = gram[~np.eye(2 * width, dtype=bool)]
    assert set(np.unique(off)) <= {0.0, -float(width)}
    if g >= 1:  # every row is its own unique FHT winner, with no tie
        params = CodeParams(g + 1, 1)
        info, cw, _ = decode_batch(book, params, "phi")
        assert np.array_equal(cw, book)
        assert np.array_equal(info, extract_info_batch(book, params))
        assert np.array_equal(encode_batch(info, params), book)


def test_hadamard_transform_builds_no_first_order_bit_table():
    # a plain transform reads only the cached factors
    width = 1 << 13  # wider than any first-order node the tests decode
    tables = _first_order_bits.cache_info().currsize
    hadamard_transform(np.ones(width))
    assert _first_order_bits.cache_info().currsize == tables


def test_hadamard_transform_matches_direct():
    def direct(z):
        index = np.arange(z.shape[-1])
        return z @ (-1.0) ** popcount(index[:, None] & index)

    rng = np.random.default_rng(4)
    for logl in range(1, 12):
        z = rng.normal(size=1 << logl)
        assert np.allclose(hadamard_transform(z), direct(z))
    z = rng.normal(size=(2, 3, 16))  # leading axes are independent rows
    got = hadamard_transform(z)
    assert got.shape == z.shape
    for index in np.ndindex(2, 3):
        assert np.allclose(got[index], direct(z[index]))
    for bad in (np.ones(5), np.ones((2, 0)), np.float64(3.0)):
        with pytest.raises(ValueError, match="power of two"):
            hadamard_transform(bad)


def test_hadamard_transform_equals_butterfly_on_dyadic_input():
    # every partial sum of these inputs is exact, so any summation order
    # must give the butterfly's floats bit for bit
    rng = np.random.default_rng(5)
    for logw in range(12):
        shape = (5, 1 << logw)
        dyadic = rng.integers(-2**20, 2**20, size=shape) / 2.0 ** rng.integers(0, 21, size=shape)
        for x in (rng.choice([-1.0, 1.0], size=shape),
                  rng.integers(-1, 2, size=shape).astype(np.float64), dyadic):
            got = hadamard_transform(x)
            assert np.array_equal(got.view(np.uint64), butterfly_fht(x).view(np.uint64))


def test_winner_codewords_and_one_block_transform():
    # for every width up to 2^12 and both signs, the batched winner write,
    # in float64 and in int8, and the single block's write each give the
    # sign times the winner's biorthogonal codeword, whether H_w is gathered
    # from or the factor rows multiplied; a 1-D transform is row 0 of the
    # (1, w) one, to the bit
    rng = np.random.default_rng(91)
    for logw in range(1, 13):
        width = 1 << logw
        best = np.unique(np.r_[0, width - 1, rng.integers(0, width, 6)])
        for sign in (1, -1):
            expected = sign * biorthogonal_codeword(best, width)
            for dtype in (np.float64, np.int8):
                tables = decoder._first_order_tables(width, dtype)
                for order in ("C", "F"):
                    cw = np.full((len(best), width), 7, dtype, order=order)
                    decoder._winner_codewords(tables, best, np.full((len(best), 1), sign, dtype),
                                              cw)
                    assert np.array_equal(cw, expected)
            tables = decoder._first_order_tables(width, np.float64)
            for j, pattern in enumerate(best):
                cw = np.full(width, 7.0)
                decoder._winner_codeword(tables, int(pattern), float(sign), cw)
                assert np.array_equal(cw, expected[j])
        x = rng.normal(size=width)
        alone = hadamard_transform(x)
        assert alone.shape == x.shape
        assert np.array_equal(alone.view(np.uint64), hadamard_transform(x[None])[0].view(np.uint64))
    for width in (1 << g for g in range(1, 10)):  # the int8 tables, up to 512 symbols wide
        assert not decoder._hadamard_matrix(width, np.int8).flags.writeable


def test_first_order_steps_carry_their_read_only_tables():
    # each first-order step of a phi compile, float64 or integer, holds its
    # width's cached bit table, split and factors, and H_w while that fits
    # the winner table's bytes, in the codewords' type; no other step
    # holds tables
    for m, r in ((3, 1), (8, 3), (10, 2), (12, 2)):
        for integer, dtype in ((False, np.float64), (True, np.int8)):
            steps, widths = [decoder._plan(m, r, True, PRODUCT, integer)], set()
            while steps:
                step = steps.pop()
                steps.extend(step.children)
                if step.node.kind != FIRST_ORDER:
                    assert step.tables is None
                    continue
                width = 1 << step.node.length_log
                widths.add(width)
                bits, (a, b, h_a, h_b), hadamard = step.tables
                expected_a, expected_b, expected_h_a, expected_h_b = _hadamard_factors(width, dtype)
                assert (a, b) == (expected_a, expected_b)
                assert np.array_equal(bits, _first_order_bits(width))
                for table, expected in ((h_a, expected_h_a), (h_b, expected_h_b)):
                    assert table.dtype == dtype and np.array_equal(table, expected)
                if width * width * np.dtype(dtype).itemsize <= decoder._WINNER_TABLE_BYTES:
                    assert hadamard.dtype == dtype
                    assert np.array_equal(hadamard, decoder._hadamard_matrix(width, dtype))
                else:
                    assert hadamard is None
                for table in (bits, h_a, h_b, hadamard):
                    assert table is None or not table.flags.writeable
            # {m, 1} is one first-order node; deeper trees hold all of
            # {2, 1} .. {m - r + 1, 1}
            assert widths == ({1 << m} if r == 1 else {1 << g for g in range(2, m - r + 2)})


def test_hadamard_tables_are_built_in_their_own_type():
    # each cached table, from width 1 to 512, holds the Hadamard matrix in
    # exactly its type, read-only
    for width in (1 << g for g in range(10)):
        matrix = biorthogonal_codeword(np.arange(width), width)
        assert matrix.dtype == np.float64
        for dtype in (np.float64, np.float32, np.int8):
            table = decoder._hadamard_matrix(width, dtype)
            assert table.dtype == dtype and not table.flags.writeable
            assert np.array_equal(table, matrix)


def test_hadamard_transform_rows_independent_of_batch():
    # a row's result must not depend on the batch around it: decode_batch
    # and run_wer promise the same output under any batching, and a single
    # block's 1-D transform, one 2-D gemm per product, gives the bits of
    # its row in every stacked batch; at every width up to 2^12, on
    # Gaussian rows at three scales, +/-1 rows and ternary rows
    rng = np.random.default_rng(6)
    for logw in range(13):
        shape = (80, 1 << logw)
        normal = rng.normal(size=shape)
        for x in (normal, normal * 2.0 ** -30, normal * 2.0 ** 30,
                  rng.choice([-1.0, 1.0], size=shape),
                  rng.integers(-1, 2, size=shape).astype(np.float64)):
            alone = np.array([hadamard_transform(row) for row in x]).view(np.uint64)
            for size in (1, 3, 7, 64):
                for start in (0, 1, 5, 16):
                    rows = slice(start, start + size)
                    assert np.array_equal(hadamard_transform(x[rows]).view(np.uint64),
                                          alone[rows])
            stacked = x[:64].reshape(4, 16, -1)
            assert np.array_equal(hadamard_transform(stacked).view(np.uint64),
                                  alone[:64].reshape(stacked.shape))


def test_hadamard_transform_refuses_buffers_it_cannot_write():
    # a product written into a buffer that is not C-contiguous would land
    # in a reshaped copy, and one of another shape or type would be
    # returned as it is or cast: each raises, and a fit buffer is returned
    # holding the transform
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 16))
    misfits = (np.zeros((3, 2, 16)).transpose(1, 0, 2), np.zeros((3, 2, 16)),
               np.zeros((6, 16)), np.zeros((2, 3, 16), order="F"))
    for name in ("out", "scratch"):
        for buffer in misfits:
            with pytest.raises(ValueError, match="C-contiguous"):
                hadamard_transform(x, **{name: buffer})
    with pytest.raises(ValueError, match="C-contiguous"):  # a (4, 2) out for a (2, 4) x
        hadamard_transform(x[0, :2, :4], out=np.zeros((4, 2)))
    with pytest.raises(ValueError, match="C-contiguous"):  # a 1-D x is not a (1, w) batch
        hadamard_transform(x[0, 0], out=np.zeros((1, 16)))
    with pytest.raises(ValueError, match="C-contiguous"):  # float64 products into float32
        hadamard_transform(x, scratch=np.zeros(x.shape, np.float32))
    for z in (x, x[0, 0]):
        expected = hadamard_transform(z)
        for dtype in (np.float64, np.float32):
            out, scratch = np.empty(z.shape, dtype), np.empty(z.shape, dtype)
            assert hadamard_transform(z, out=out, scratch=scratch) is out
            assert np.array_equal(out, hadamard_transform(z.astype(dtype), out=np.empty_like(out)))
            assert np.allclose(out, expected, rtol=1e-5, atol=1e-4)
        out = np.empty(z.shape)
        assert hadamard_transform(z, out=out) is out and np.array_equal(out, expected)
        scratch = np.empty(z.shape)
        assert np.array_equal(hadamard_transform(z, scratch=scratch), expected)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_noiseless_roundtrip_exhaustive(m):
    for r in range(m + 1):
        params = CodeParams(m, r)
        blocks = ((np.arange(1 << params.k)[:, None] >> np.arange(params.k - 1, -1, -1)) & 1
                  ).astype(np.uint8)
        sent = encode_batch(blocks, params)
        got, cw, _ = decode_batch(sent, params, "psi")
        assert np.array_equal(got, blocks)
        assert np.array_equal(cw, sent)
        if r >= 1:
            got_phi, _, _ = decode_batch(sent, params, "phi")
            assert np.array_equal(got_phi, blocks)


def test_bounded_distance_4_1():
    from itertools import combinations

    params = CodeParams(4, 1)  # d = 8, corrects weight <= 3
    patterns = [()] + [c for w in (1, 2, 3) for c in combinations(range(16), w)]
    received = np.ones((len(patterns), 16))
    for i, pattern in enumerate(patterns):
        received[i, list(pattern)] = -1.0
    for algorithm in ("psi", "phi"):
        info, _, _ = decode_batch(received, params, algorithm)
        assert not info.any()


def test_decode_validation():
    params = CodeParams(3, 1)
    with pytest.raises(ValueError):
        decode_psi(np.ones(7), params)
    with pytest.raises(ValueError):
        decode_phi(np.ones(32), CodeParams(5, 0))
    with pytest.raises(ValueError):
        decode_batch(np.ones((2, 8)), params, "viterbi")
    with pytest.raises(ValueError, match="algorithm"):
        decode_op_bound(params, "viterbi")
    with pytest.raises(ValueError, match="r >= 1"):  # no phi decode of {4,0} runs
        decode_op_bound(CodeParams(4, 0), "phi")
    for rule in ("u_rule", "v_rule", "tie_rule"):
        with pytest.raises(ValueError, match=rule):
            DecoderOptions(**{rule: "median"})


def test_single_decode_refuses_nan_symbols():
    # finite input whose products overflow to inf, then to NaN; the decode
    # silences its own inf and NaN arithmetic, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, decodes in [(CodeParams(3, 1), (decode_psi,)),
                                (CodeParams(4, 2), (decode_psi, decode_phi))]:
            y = np.full(params.n, 1e200)
            y[2] = -1e200
            for decode in decodes:
                with pytest.raises(ValueError, match="NaN"):
                    decode(y, params)
            with pytest.raises(ValueError, match="codeword"):
                extract_info_batch(y[None, :], params)
            _, cw, _ = decode_batch(y[None, :], params)  # the batch path does not check
            assert np.isnan(cw).any()


def test_op_counts_reference_values():
    rng = np.random.default_rng(5)
    # (measured, bound) pinned for the published reference codes
    expect = {
        (7, 2): {("psi", "scaled"): 1080, ("psi", "unscaled"): 842,
                 ("phi", "scaled"): 1388, ("phi", "unscaled"): 1264},
        (8, 2): {("psi", "scaled"): 2224, ("psi", "unscaled"): 1732,
                 ("phi", "scaled"): 3052, ("phi", "unscaled"): 2800},
        (8, 3): {("psi", "scaled"): 2952, ("psi", "unscaled"): 2278,
                 ("phi", "scaled"): 3420, ("phi", "unscaled"): 2944},
    }
    for (m, r), cases in expect.items():
        params = CodeParams(m, r)
        y = rng.uniform(-1, 1, params.n)
        for (algorithm, rule), measured in cases.items():
            options = DecoderOptions(u_rule=rule)
            decode = decode_phi if algorithm == "phi" else decode_psi
            result = decode(y, params, options)
            assert result.op_count == measured
            assert result.op_count <= decode_op_bound(params, algorithm, rule)


def test_op_count_data_independent():
    params = CodeParams(6, 3)
    rng = np.random.default_rng(6)
    counts = {decode_psi(rng.uniform(-1, 1, 64), params).op_count for _ in range(5)}
    assert len(counts) == 1


def test_compiled_op_counts_match_the_per_node_rule():
    # on every tree with m <= 8, under both algorithms and all four rule
    # pairs, the compile's count is the per-node rule's, and both walks
    # report it, within the closed-form bound under the product rule
    rng = np.random.default_rng(12)
    for m in range(1, 9):
        for r in range(m + 1):
            params = CodeParams(m, r)
            y = rng.uniform(-1, 1, params.n)
            for algorithm in ("psi", "phi") if r >= 1 else ("psi",):
                decode = decode_phi if algorithm == "phi" else decode_psi
                for u_rule in (SCALED, UNSCALED):
                    for v_rule in (PRODUCT, MIN_SUM):
                        options = DecoderOptions(u_rule, v_rule)
                        compiled = decoder._op_count(
                            decoder._plan(m, r, algorithm == "phi", v_rule, False), options)
                        assert compiled == op_count_oracle(m, r, algorithm == "phi", u_rule,
                                                           v_rule)
                        assert decode_batch(y[None], params, algorithm, options)[2] == compiled
                        assert decode(y, params, options).op_count == compiled
                        if v_rule == PRODUCT:  # the bound's v rule
                            assert compiled <= decode_op_bound(params, algorithm, u_rule)


def test_decode_op_bound_equals_its_closed_form():
    # every code up to m = 12, both algorithms, both u rules; the compiled
    # count reaches the bound on repetition codes and full spaces, and under
    # phi's unscaled rule at r = 1 and r = m - 1, and falls short elsewhere
    for m in range(1, 13):
        for r in range(m + 1):
            params = CodeParams(m, r)
            for phi in (False, True) if r >= 1 else (False,):
                plan = decoder._plan(m, r, phi, PRODUCT, False)
                for u_rule in (SCALED, UNSCALED):
                    bound = decode_op_bound(params, "phi" if phi else "psi", u_rule)
                    assert bound == op_bound_oracle(m, r, phi, u_rule)
                    compiled = decoder._op_count(plan, DecoderOptions(u_rule))
                    tight = r in (0, m) or (phi and u_rule == UNSCALED and r in (1, m - 1))
                    assert compiled <= bound and (compiled == bound) == tight, (m, r, phi)


def test_min_sum_decodes_noiseless():
    params = CodeParams(6, 2)
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, params.k).astype(np.uint8)
    result = decode_psi(encode(info, params).astype(float), params,
                        DecoderOptions(v_rule=MIN_SUM))
    assert np.array_equal(result.info, info)


def test_decode_order_lemma(monkeypatch):
    # the decoders decide their end nodes one after another in tree order,
    # each at its own tie site: record the site of every sign evaluation,
    # the scalar ones of a single block's walk and the row-wise ones of a
    # batch's, here one row
    rng = np.random.default_rng(8)
    sites = []

    def recording(signs):
        def record(values, options, trials, site):
            sites.append(site)
            return signs(values, options, trials, site)
        return record

    monkeypatch.setattr(decoder, "_signs", recording(decoder._signs))
    monkeypatch.setattr(decoder, "_sign", recording(decoder._sign))
    for m, r in [(5, 2), (6, 3)]:
        params = CodeParams(m, r)
        y = rng.uniform(-1, 1, params.n)
        for phi, decode in ((False, decode_psi), (True, decode_phi)):
            leaves = plotkin_tree(m, r, phi).leaves
            sites.clear()
            result = decode(y, params, DecoderOptions(trace=True))
            assert sites == [leaf.site for leaf in leaves]
            assert list(result.trace) == list(enumerate_paths(params))
            sites.clear()
            decode_batch(y[None], params, "phi" if phi else "psi")
            assert sites == [leaf.site for leaf in leaves]


def test_trace_decisions_match_info():
    # psi decides every path by the sign of its end value, the tie coin
    # only where that value is zero; ternary words make zeros common
    rng = np.random.default_rng(9)
    zeros, seen = 0, set()
    for m, r in [(6, 3), (6, 2), (7, 3), (5, 0), (4, 4)]:
        params = CodeParams(m, r)
        for y in (rng.uniform(-1, 1, params.n), rng.integers(-1, 2, params.n).astype(float)):
            result = decode_psi(y, params, DecoderOptions(trace=True))
            values = np.array(list(result.trace.values()))
            decisions = 1 - 2 * result.info.astype(np.int64)
            nonzero = values != 0
            assert np.array_equal(np.sign(values[nonzero]), decisions[nonzero])
            zeros += int((~nonzero).sum())
            seen |= set(decisions[nonzero].tolist())
    assert zeros > 0 and seen == {-1, 1}


def test_codeword_is_reencoded_info():
    rng = np.random.default_rng(10)
    for m, r in [(6, 2), (7, 3), (5, 5), (12, 2)]:
        params = CodeParams(m, r)
        y = rng.uniform(-1, 1, params.n)
        for decode in (decode_psi,) + ((decode_phi,) if r >= 1 else ()):
            result = decode(y, params)
            assert np.array_equal(result.codeword,
                                  encode(result.info, params))


def test_scaling_invariance():
    rng = np.random.default_rng(11)
    for m, r in [(6, 2), (7, 3)]:
        params = CodeParams(m, r)
        y = rng.uniform(-1, 1, (200, params.n))
        y[rng.uniform(size=y.shape) < 0.02] = 0.0
        for algorithm in ("psi", "phi"):
            scaled, _, ops_s = decode_batch(y, params, algorithm,
                                            DecoderOptions(tie_seed=1))
            unscaled, _, ops_u = decode_batch(
                y, params, algorithm,
                DecoderOptions(u_rule=UNSCALED, tie_seed=1))
            assert np.array_equal(scaled, unscaled)
            assert ops_u < ops_s


def test_batch_matches_single_calls():
    # a single block walks the tree on its own, with scalar decisions; each
    # decode must equal its row of the batched walk, tree by tree, under
    # every rule set.  Exact zeros in uniform words and ternary words make
    # ties, zero end values, at every kind of end node, and the trial
    # indices reach 2^64 - 1
    rng = np.random.default_rng(12)
    trees = [(m, r) for m in range(1, 8) for r in range(m + 1)]
    cases = ([(CodeParams(m, r), "psi") for m, r in trees + [(8, 2)]]
             + [(CodeParams(m, r), "phi") for m, r in trees + [(12, 2)] if r >= 1])
    tied = set()
    for params, algorithm in cases:
        phi = algorithm == "phi"
        decode = decode_phi if phi else decode_psi
        leaves = plotkin_tree(params.m, params.r, phi).leaves
        uniform = rng.uniform(-1, 1, (3, params.n))
        uniform[rng.uniform(size=uniform.shape) < 0.05] = 0.0
        for y in (uniform, rng.integers(-1, 2, (3, params.n)).astype(float)):
            trials = rng.integers(0, 2 ** 64 - 1, len(y), dtype=np.uint64)
            trials[-1] = 2 ** 64 - 1
            for options in MEMORY_ORDER_RULES:
                info, cw, ops = decode_batch(y, params, algorithm, options, trials)
                for i, trial in enumerate(trials.tolist()):
                    single = decode(y[i], params, replace(options, trace=True), trial=trial)
                    assert np.array_equal(single.info, info[i])
                    assert np.array_equal(single.codeword, cw[i])
                    assert single.op_count == ops
                    values = np.array(list(single.trace.values()))
                    tied |= {leaf.kind for leaf in leaves if (values[leaf.info] == 0).any()}
    assert tied == {LEFT_END, RIGHT_END, FIRST_ORDER}


MEMORY_ORDER_RULES = [DecoderOptions(u_rule=u, v_rule=v, tie_rule=t, tie_seed=9)
                      for u in (SCALED, UNSCALED) for v in (PRODUCT, MIN_SUM)
                      for t in (TIE_RANDOM, TIE_POSITIVE)]


def _pm1_batches(rng, params, rows):
    """Channel words of random codewords at crossover 0.2, symbol-major, and
    two variants: one entry off +/-1, and every entry scaled by a real."""
    bits = rng.integers(0, 2, size=(rows, params.k), dtype=np.uint8)
    flips = np.where(rng.random((rows, params.n)) < 0.2, -1.0, 1.0)
    pm1 = np.asfortranarray(encode_batch(bits, params) * flips)
    nearly = pm1.copy(order="F")
    nearly[-1, -1] = 0.75
    scaled = np.asfortranarray(pm1 * rng.uniform(0.5, 1.5, size=pm1.shape))
    return [pm1, nearly, scaled]


@pytest.mark.parametrize("m, r", [(5, 0), (9, 0), (12, 0), (6, 2), (7, 3), (8, 2), (9, 1),
                                  (11, 3)])
def test_rows_independent_of_memory_order(m, r):
    # A C-ordered batch runs in row-major order, an F-ordered one runs
    # symbol-major (each node's halves are contiguous slabs); the end-node
    # reductions must still round as on one row alone.  Repetition nodes
    # wider than one 128-symbol block: the roots of {9,0} and {12,0}, whose
    # cancelling rows make a decision hang on the rounding, and the {8,0}
    # nodes of {9,1} and {11,3}
    rng = np.random.default_rng(20 + m)
    params = CodeParams(m, r)
    rows = 20 if params.n <= 512 else 3
    half = rng.normal(size=(rows, params.n // 2))
    # rows whose exact sum is 0: the rounded sum, and hence a repetition
    # root's decision, depends on the order of the additions
    cancelling = rng.permuted(np.hstack([half, -half]), axis=1)
    y = np.vstack([rng.normal(size=(rows, params.n)), cancelling,
                   rng.integers(-1, 2, size=(rows, params.n)).astype(np.float64)])
    y[:rows][rng.uniform(size=(rows, params.n)) < 0.05] = 0.0  # ties on real rows too
    for batch in [y] + _pm1_batches(rng, params, rows):
        trials = np.arange(len(batch), dtype=np.uint64) + 1000
        row_major, symbol_major = np.ascontiguousarray(batch), np.asfortranarray(batch)
        for algorithm in ("psi", "phi") if r >= 1 else ("psi",):
            for options in MEMORY_ORDER_RULES:
                info, cw, _ = decode_batch(row_major, params, algorithm, options, trials)
                info_f, cw_f, _ = decode_batch(symbol_major, params, algorithm, options, trials)
                assert cw_f.flags.f_contiguous and not cw_f.flags.c_contiguous
                assert np.array_equal(info_f, info) and np.array_equal(cw_f, cw)
                for j in range(len(batch)):
                    info_j, cw_j, _ = decode_batch(batch[j], params, algorithm, options,
                                                   trials[j:j + 1])
                    assert np.array_equal(info_j[0], info[j]) and np.array_equal(cw_j[0], cw[j])
    bits = rng.integers(0, 2, size=(len(y), params.k), dtype=np.uint8)
    encoded_f = encode_batch(np.asfortranarray(bits), params)
    if params.k > 1:  # a (B, 1) block is C- and F-contiguous at once
        assert encoded_f.flags.f_contiguous and not encoded_f.flags.c_contiguous
    assert np.array_equal(encoded_f, encode_batch(bits, params))


def test_decode_independent_of_earlier_decodes():
    # A Monte Carlo run passes every decode on a pool thread that thread's
    # workspace (simulate._row_blocks), so a decode finds whatever the decodes
    # before it left there.  Decode a shuffled sequence of codes, batch sizes,
    # memory orders and rules into one shared workspace, then each one
    # alone, with a workspace of its own, in a fresh thread.  The root of
    # {6,1} under phi is a first-order node as wide as the code.  The
    # genie's forced decodes, the only batched decodes that record end
    # values, run in the same workspace, between the others, and the integer
    # decodes of +/-1 words in one shared byte workspace, filled with noise
    # at the start
    rng = np.random.default_rng(21)
    cases = []
    for params, algorithm in ((CodeParams(6, 1), "phi"), (CodeParams(10, 2), "phi"),
                              (CodeParams(8, 2), "psi")):
        for rows in (1, 7, 512):
            y = rng.normal(size=(rows, params.n))
            y[rng.uniform(size=y.shape) < 0.05] = 0.0  # ties
            pm1 = np.where(rng.random((rows, params.n)) < 0.3, -1.0, 1.0)
            for batch in (np.ascontiguousarray(y), np.asfortranarray(y)):
                cases.append((batch, params, "genie", None, True, np.float64))
                for u_rule in (SCALED, UNSCALED):
                    for v_rule in (PRODUCT, MIN_SUM):
                        cases.append((batch, params, algorithm,
                                      DecoderOptions(u_rule, v_rule, tie_seed=4), False,
                                      np.float64))
            for batch in (np.ascontiguousarray(pm1), np.asfortranarray(pm1)):
                cases.append((batch, params, "genie", None, True, np.uint8))
                for v_rule in (PRODUCT, MIN_SUM):
                    cases.append((batch, params, algorithm, DecoderOptions(v_rule=v_rule,
                                                                           tie_seed=4),
                                  False, np.uint8))

    def width(case):  # workspace elements per row, bytes in an integer decode
        _, params, algorithm, options, _, dtype = case
        psi = "psi" if algorithm == "genie" else algorithm
        v_rule = options.v_rule if options else PRODUCT
        if dtype == np.uint8:
            return decoder._pm1_workspace(params, psi, v_rule, algorithm == "genie")[2]
        return decoder._plan(params.m, params.r, psi == "phi", v_rule, False).need // 8

    def decode(case, shared=None):
        batch, params, algorithm, options, _, dtype = case
        work = np.empty(len(batch) * width(case), dtype) if shared is None else shared[dtype]
        if algorithm == "genie":  # its end values, and supports in the place of cw
            values, supports = genie_batch(batch, params, _work=work)
            return None, supports, 0, values
        return decoder._decode(batch, params, algorithm, options, None, work=work)

    def alone(case):
        result = []
        thread = threading.Thread(target=lambda: result.append(decode(case)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return result[0]

    order = rng.permutation(len(cases))
    size = max(len(case[0]) * width(case) for case in cases)
    shared = {np.float64: np.empty(size),
              np.uint8: rng.integers(0, 256, size, dtype=np.uint8)}
    reused = [decode(cases[i], shared) for i in order]
    for i, (info, cw, ops, values) in zip(order, reused):
        info_1, cw_1, ops_1, values_1 = alone(cases[i])
        assert ops == ops_1 and np.array_equal(info, info_1)
        assert cw.flags.f_contiguous == cw_1.flags.f_contiguous
        assert cw.dtype == cw_1.dtype
        assert np.array_equal(cw.view(f"i{cw.itemsize}"), cw_1.view(f"i{cw.itemsize}"))
        if cases[i][-2]:  # the end values, to the bit and the sign of zero
            assert np.array_equal(values.view(np.int64), values_1.view(np.int64))
        else:
            assert values is None and values_1 is None


@pytest.mark.parametrize("length_log", range(13))
def test_block_sums_match_numpy_rows_in_either_memory_order(length_log):
    # the repetition sum of a symbol-major slab adds in numpy's pairwise
    # order over one contiguous row, to the bit and to the sign of zero
    rng = np.random.default_rng(60 + length_log)
    width = 1 << length_log
    for count in (1, 7, 300):
        # a dynamic range of 16 decades
        rows = rng.normal(size=(count, width)) * 10.0 ** rng.uniform(-8, 8, size=(count, width))
        rows[0, :(width + 1) // 2] = -0.0  # all -0.0 when the width is 1
        if count > 1:
            half = rng.normal(size=width // 2)
            rows[1] = rng.permuted(np.concatenate([half, -half])) if width > 1 else -0.0
            rows[2, rng.integers(width)] = np.inf
            rows[3] = -0.0
            rows[4, rng.integers(width)], rows[4, 0] = -np.inf, np.inf
            rows[5, rng.integers(width)] = -np.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            expect = rows.sum(axis=1).view(np.int64)
            for view in (rows.T, np.ascontiguousarray(rows.T)):  # row-major, symbol-major
                assert np.array_equal(decoder._block_sums(view).view(np.int64), expect)


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _grid_bits(values) -> int:
    """Bits that a set of dyadic rationals needs on their common grid: the
    least b with |x| * 2^g <= 2^b for all x, 2^-g the finest denominator.
    float32 holds every such x exactly when b <= 24, float64 when b <= 53."""
    g = max(value.denominator.bit_length() - 1 for value in values)
    top = max(abs(value.numerator) << (g - value.denominator.bit_length() + 1)
              for value in values)
    return max(top - 1, 0).bit_length()


def _exact_decode(y, node, options, bits):
    """The +/-1 codeword of a decode of the Fraction list y at `node`, with
    ties to +1, in exact arithmetic.  Appends to `bits` the grid bits of
    every node's input and of each magnitude sum that bounds, in any order,
    the partial sums of a repetition node, a first-order node or a genie
    support sum (the second half of an order-1 split node's input)."""
    bits.append(_grid_bits(y))
    if node.kind == SPLIT:
        v, u = node.children
        half = len(y) // 2
        y1, y2 = y[:half], y[half:]
        if node.order == 1:
            bits.append(_grid_bits([sum(abs(value) for value in y2)]))
        if options.v_rule == PRODUCT:
            y_v = [a * b for a, b in zip(y1, y2)]
        else:
            y_v = [_sign(a) * _sign(b) * min(abs(a), abs(b)) for a, b in zip(y1, y2)]
        v_hat = _exact_decode(y_v, v, options, bits)
        scale = Fraction(1, 2) if options.u_rule == SCALED else 1
        u_hat = _exact_decode([(a + b * s) * scale for a, b, s in zip(y1, y2, v_hat)],
                              u, options, bits)
        return u_hat + [a * b for a, b in zip(u_hat, v_hat)]
    if node.kind == RIGHT_END:
        return [1 if value >= 0 else -1 for value in y]
    bits.append(_grid_bits([sum(abs(value) for value in y)]))
    if node.kind == LEFT_END:
        return [1 if sum(y) >= 0 else -1] * len(y)
    corr, h = list(y), 1  # the butterfly FHT
    while h < len(corr):
        for i in range(0, len(corr), 2 * h):
            for j in range(i, i + h):
                corr[j], corr[j + h] = corr[j] + corr[j + h], corr[j] - corr[j + h]
        h *= 2
    best = max(range(len(corr)), key=lambda j: (abs(corr[j]), -j))
    sign = 1 if corr[best] >= 0 else -1
    return [sign * int(s) for s in biorthogonal_codeword(best, len(y))[0]]


_EXACT_RULES = [DecoderOptions(u_rule=u, v_rule=v, tie_rule=TIE_POSITIVE)
                for u in (SCALED, UNSCALED) for v in (PRODUCT, MIN_SUM)]


def _pm1_work(params, algorithm, v_rule, rows, forced=False):
    """A byte workspace for the integer decode of `rows` +/-1 words, forced
    (the genie's) or not, or a float64 one where the bit budget does not
    certify the tree."""
    _, dtype, width = decoder._pm1_workspace(params, algorithm, v_rule, forced)
    return np.empty(rows * width, dtype)


@pytest.mark.parametrize("m", range(1, 7))
def test_pm1_decodes_match_exact_arithmetic(m):
    # the float64 and the integer decode of +/-1 words equal their decode in
    # exact arithmetic, which needs no more bits than the static budget
    rng = np.random.default_rng(40 + m)
    n = 1 << m
    index = np.arange(n)
    words = np.vstack([np.ones(n)]
                      + [np.where(index >> j & 1, -1.0, 1.0) for j in range(m)]
                      + [np.where(rng.random(n) < 0.5, -1.0, 1.0) for _ in range(4)])
    for r in range(m + 1):
        params = CodeParams(m, r)
        for algorithm in ("psi", "phi") if r >= 1 else ("psi",):
            root = plotkin_tree(m, r, algorithm == "phi").root
            for options in _EXACT_RULES:
                budget = decoder._plan(m, r, algorithm == "phi", options.v_rule, False).budget
                work = _pm1_work(params, algorithm, options.v_rule, len(words))
                assert work.dtype == np.uint8
                _, cw, _ = decode_batch(words, params, algorithm, options)
                _, cw_int, _ = decode_batch(words, params, algorithm, options, _work=work)
                assert cw_int.dtype == np.int8
                for word, decoded, decoded_int in zip(words, cw, cw_int):
                    bits = []
                    exact = _exact_decode([Fraction(int(s)) for s in word], root, options, bits)
                    assert exact == decoded.tolist() == decoded_int.tolist()
                    assert max(bits) <= budget


def test_integer_decode_past_float64_matches_exact_arithmetic():
    # psi {11,3} needs 57 bits under the product rule, past the 53 that
    # float64 holds exactly, and decodes on integers, in int64 at its widest
    # nodes: its decode equals the decode in exact arithmetic.  The all-ones
    # word's values reach the budget
    params, rng = CodeParams(11, 3), np.random.default_rng(47)
    words = np.vstack([np.ones(params.n, np.int8), np.where(np.arange(params.n) & 1, -1, 1)]
                      + [np.where(rng.random(params.n) < p, -1, 1) for p in (0.05, 0.2, 0.45)])
    options = DecoderOptions(u_rule=UNSCALED, tie_rule=TIE_POSITIVE)
    work = _pm1_work(params, "psi", PRODUCT, len(words))
    assert work.dtype == np.uint8
    _, cw, _ = decode_batch(words.astype(np.int8), params, "psi", options, _work=work)
    budget = []
    for word, decoded in zip(words, cw):
        bits = []
        exact = _exact_decode(word.tolist(), plotkin_tree(11, 3).root, options, bits)
        assert exact == decoded.tolist()
        budget.append(max(bits))
    assert budget[0] == max(budget) == decoder._plan(11, 3, False, PRODUCT, False).budget == 57


def test_bit_budget_reference_values():
    # (m, r, phi): bits under the product and the min-sum v rule; an integer
    # decode holds up to 62 bits (53 at a first-order node's transform)
    expect = {(8, 2, False): (21, 6), (10, 2, True): (16, 9), (12, 2, True): (20, 11),
              (12, 1, False): (21, 11), (9, 2, False): (25, 7), (10, 2, False): (29, 8),
              (11, 3, False): (57, 8), (12, 3, False): (65, 9), (12, 4, True): (58, 9)}
    for (m, r, phi), (product, min_sum) in expect.items():
        assert decoder._plan(m, r, phi, PRODUCT, False).budget == product
        assert decoder._plan(m, r, phi, MIN_SUM, False).budget == min_sum
        algorithm = "phi" if phi else "psi"
        words, dtype, _ = decoder._pm1_workspace(CodeParams(m, r), algorithm, PRODUCT)
        assert (words, dtype) == ((np.int8, np.uint8) if product <= (53 if phi else 62) else
                                  (np.float64, np.float64))
        assert decoder._pm1_workspace(CodeParams(m, r), algorithm, MIN_SUM)[1] == np.uint8
    # each node's values in the narrowest type that holds their bits, and
    # each repetition sum and support sum in the one that holds the sum's;
    # phi {12,4}'s widest first-order transform needs 58 bits, past float64's
    # 53, and psi {12,3}'s values 65, past int64's 62
    def narrowest(bits):
        return next(np.dtype(t) for limit, t in ((6, np.int8), (14, np.int16), (30, np.int32),
                                                  (62, np.int64)) if bits <= limit)

    for m, r, phi, v_rule, used in ((8, 2, False, PRODUCT, {np.int8, np.int16, np.int32}),
                                    (10, 2, True, PRODUCT, {np.int8, np.int16}),
                                    (11, 3, False, PRODUCT, {np.int8, np.int16, np.int32,
                                                             np.int64}),
                                    (9, 1, False, MIN_SUM, {np.int8, np.int16})):
        steps, values = [decoder._plan(m, r, phi, v_rule, True)], set()
        while steps:
            step = steps.pop()
            node, e = step.node, step.bits
            assert step.value == narrowest(e)
            values.add(step.value)
            steps.extend(step.children)
            if node.kind == SPLIT:
                v, u = step.children
                assert (v.bits, u.bits) == (2 * e if v_rule == PRODUCT else e, e + 1)
                if node.order == 1:
                    assert step.reduce == narrowest(e + node.length_log - 1)
            elif node.kind == LEFT_END:
                assert step.reduce == narrowest(e + node.length_log)
            elif node.kind == FIRST_ORDER:
                assert step.reduce == (np.float32 if e + node.length_log <= 24 else np.float64)
        assert values == {np.dtype(t) for t in used}
    assert decoder._plan(12, 4, True, PRODUCT, True) is None
    assert decoder._plan(12, 3, False, PRODUCT, True) is None
    # the genie's forced plan keeps float64's -0.0: a node with a full space
    # below it, under a u step and then a v step (prefix bits 1, then 0),
    # and every node below it, hold floats, exact up to 24 bits in float32
    # and 53 in float64; psi {11,3} needs more there, and {12,1} none
    for m, r, floats in ((8, 2, {np.float32}), (10, 2, {np.float32, np.float64}),
                         (9, 3, {np.float32, np.float64}), (12, 1, set())):
        steps, values = [(decoder._plan(m, r, False, PRODUCT, True, True), False)], set()
        while steps:
            step, floating = steps.pop()
            node, e = step.node, step.bits
            floating = floating or "10" in "".join(map(str, node.prefix)) and node.order >= 1
            assert step.value == (np.dtype(np.float32 if e <= 24 else np.float64) if floating
                                  else narrowest(e))
            values.add(step.value)
            steps.extend((child, floating) for child in step.children)
        assert {value for value in values if value.kind == "f"} == {np.dtype(t) for t in floats}
    assert decoder._plan(12, 1, False, PRODUCT, True, True) == decoder._plan(12, 1, False,
                                                                            PRODUCT, True)
    assert decoder._plan(11, 3, False, PRODUCT, True, True) is None


_DTYPE_RULES = [DecoderOptions(u_rule=u, v_rule=v, tie_rule=t, tie_seed=6)
                for u in (SCALED, UNSCALED) for v in (PRODUCT, MIN_SUM)
                for t in (TIE_RANDOM, TIE_POSITIVE)]


def _channel_words(rng, params, rows):
    """+/-1 channel words of random codewords, a third of the rows each at
    crossovers 0 (the clean codewords, whose values reach the bit budget),
    0.1 and 0.4 (tie-rich at every kind of end node)."""
    bits = rng.integers(0, 2, size=(rows, params.k), dtype=np.uint8)
    p = np.repeat([0.0, 0.1, 0.4], -(-rows // 3))[:rows, None]
    return encode_batch(bits, params) * np.where(rng.random((rows, params.n)) < p, -1.0, 1.0)


@pytest.mark.parametrize("m", range(1, 11))
def test_integer_decodes_match_float64(m):
    # an integer decode of +/-1 words gives the float64 decode's info bits
    # and codewords, bit for bit, on every tree with m <= 9 and psi {10,2},
    # under both algorithms, both u, v and tie rules, in either memory order
    # and with or without codewords; the trees of psi {9,2} and {10,2} and of
    # min-sum {9,1} have int16 or int32 nodes.  On the trees the budget does
    # not certify, a run's +/-1 words decode in float64
    rng = np.random.default_rng(70 + m)
    codes = [(10, 2)] if m == 10 else [(m, r) for r in range(m + 1)]
    rows = 48 if m <= 8 else 12
    for params in (CodeParams(*code) for code in codes):
        y = _channel_words(rng, params, rows)
        trials = np.arange(rows, dtype=np.uint64) + 500
        for algorithm in ("psi", "phi") if params.r >= 1 and m < 10 else ("psi",):
            for options in _DTYPE_RULES:
                work = _pm1_work(params, algorithm, options.v_rule, rows)
                assert (work.dtype == np.uint8) == (
                    decoder._plan(params.m, params.r, algorithm == "phi", options.v_rule,
                                  False).budget <= (53 if algorithm == "phi" else 62))
                for batch in (np.ascontiguousarray(y), np.asfortranarray(y)):
                    info, cw, ops = decode_batch(batch, params, algorithm, options, trials)
                    info_int, cw_int, ops_int = decode_batch(batch, params, algorithm, options,
                                                             trials, _work=work)
                    assert cw_int.dtype == (np.int8 if work.dtype == np.uint8 else np.float64)
                    assert cw_int.flags.f_contiguous == batch.flags.f_contiguous
                    assert ops_int == ops and np.array_equal(info_int, info)
                    assert np.array_equal(cw_int, cw)
                    info_only, _, _ = decode_batch(batch, params, algorithm, options, trials,
                                                   _work=work, _info_only=True)
                    assert np.array_equal(info_only, info)


def test_integer_phi_decodes_match_float64_at_wide_first_order_nodes():
    # phi {10,2} and {12,2} have first-order nodes 512 to 2048 symbols wide:
    # the int8 Hadamard table's widest rows (w = 512) and the product of
    # factor rows above it (w = 1024, 2048) build their integer winners
    rng = np.random.default_rng(90)
    for params, rows in ((CodeParams(10, 2), 6), (CodeParams(12, 2), 3)):
        y = _channel_words(rng, params, rows)
        trials = np.arange(rows, dtype=np.uint64) + 700
        for options in (_DTYPE_RULES[0], _DTYPE_RULES[-1]):  # the rules differ throughout
            work = _pm1_work(params, "phi", options.v_rule, rows)
            assert work.dtype == np.uint8
            for batch in (np.ascontiguousarray(y), np.asfortranarray(y)):
                info, cw, ops = decode_batch(batch, params, "phi", options, trials)
                info_int, cw_int, ops_int = decode_batch(batch, params, "phi", options,
                                                         trials, _work=work)
                assert cw_int.dtype == np.int8
                assert ops_int == ops and np.array_equal(info_int, info)
                assert np.array_equal(cw_int, cw)
                info_only, _, _ = decode_batch(batch, params, "phi", options, trials,
                                               _work=work, _info_only=True)
                assert np.array_equal(info_only, info)


def test_integer_genie_matches_float64():
    # the genie's forced integer decode of +/-1 words gives the float64 end
    # values and support sums, to the bit and the sign of zero, on every psi
    # tree with m <= 9, psi {10,2} and {12,1}, in either memory order; the
    # all-ones word's values reach the bit budget.  The float64 decode
    # carries -0.0 (a product of +0.0 and a negative) into full spaces, and
    # the integer decode keeps them.  Its forced plan is refused past 53
    # bits at a node that holds floats: psi {8,5}, {8,6} and {9,4} to {9,7}
    rng = np.random.default_rng(80)
    codes = [CodeParams(m, r) for m in range(1, 10) for r in range(m + 1)]
    zeros, refused = 0, set()
    for params in codes + [CodeParams(10, 2), CodeParams(12, 1)]:
        rows = 3 if params.n > 256 else 40
        y = np.where(rng.random((rows, params.n)) < 0.4, -1.0, 1.0)
        y[0] = 1.0
        work = _pm1_work(params, "psi", PRODUCT, rows, forced=True)
        if work.dtype != np.uint8:
            refused.add((params.m, params.r))
        for batch in (np.ascontiguousarray(y), np.asfortranarray(y)):
            values, supports = genie_batch(batch, params)
            values_int, supports_int = genie_batch(batch.astype(np.int8), params, _work=work)
            assert values_int.dtype == supports_int.dtype == np.float64
            assert np.array_equal(supports_int.view(np.int64), supports.view(np.int64))
            assert np.array_equal(values_int.view(np.int64), values.view(np.int64))
            if work.dtype == np.uint8:
                zeros += np.count_nonzero(np.signbit(values_int[values_int == 0]))
    assert zeros  # -0.0 end values do occur in integer decodes
    assert refused == {(8, 5), (8, 6), (9, 4), (9, 5), (9, 6), (9, 7)}


def test_integer_workspace_needs_a_certified_tree():
    # psi {12,3} needs 65 bits, more than int64 holds: a byte workspace is
    # refused there, decoding or forced, and taken under min-sum, which
    # needs 9
    params = CodeParams(12, 3)
    y = np.ones((2, params.n), np.int8)
    work = np.empty(2 * decoder._pm1_workspace(params, "psi", MIN_SUM)[2], np.uint8)
    with pytest.raises(ValueError, match="certify"):
        decode_batch(y, params, "psi", _work=work)
    with pytest.raises(ValueError, match="certify"):
        genie_batch(y, params, _work=work)
    info, cw, _ = decode_batch(y, params, "psi", DecoderOptions(v_rule=MIN_SUM), _work=work)
    assert cw.dtype == np.int8 and not info.any() and (cw == 1).all()


def test_float32_input_decodes_as_float64():
    # a real float32 batch is cast to float64, as any other input: only the
    # Monte Carlo harness's +/-1 words decode on integers
    rng = np.random.default_rng(81)
    for params, algorithm in ((CodeParams(8, 2), "psi"), (CodeParams(10, 2), "phi")):
        y = rng.normal(size=(32, params.n)).astype(np.float32)
        y[rng.uniform(size=y.shape) < 0.05] = 0.0
        info, cw, _ = decode_batch(y, params, algorithm, DecoderOptions(tie_seed=2))
        info_64, cw_64, _ = decode_batch(y.astype(np.float64), params, algorithm,
                                         DecoderOptions(tie_seed=2))
        assert cw.dtype == np.float64
        assert np.array_equal(info, info_64) and np.array_equal(cw, cw_64)


def test_integer_steps_compute_in_their_slots_type():
    # numpy computes a ufunc in its inputs' type: the v and the forced u step
    # of int8 halves must compute in their wider int16 slot, where 64 * 64
    # and 64 + 64 overflow int8; min-sum's scratch has the halves' type, so
    # |-300| and sign(300) come out right in int16
    half = np.full((4, 3), 64, np.int8)
    out = np.empty((4, 3), np.int16)
    assert (decoder._v_step(half, half, PRODUCT, out, None) == 4096).all()
    assert (decoder._u_step(half, half, None, UNSCALED, out) == 128).all()
    assert (decoder._u_step(half, -half, np.full((4, 3), -1, np.int8), UNSCALED, out)
            == 128).all()
    wide = np.full((4, 3), 300, np.int16)
    spare = np.empty((4, 3), np.int16)
    assert (decoder._v_step(-wide, wide + 1, MIN_SUM, out, spare) == -300).all()


@pytest.mark.parametrize("m, r, algorithm", [(6, 1, "phi"), (6, 1, "psi"), (8, 2, "phi"),
                                              (8, 2, "psi"), (7, 3, "phi"), (7, 3, "psi"),
                                              (5, 0, "psi"), (4, 4, "psi")])
def test_info_only_decodes_return_the_full_decodes_info_bits(m, r, algorithm):
    # an info-only decode builds no codeword along the root's u chain (the
    # whole {6,1} phi root, a first-order node, among them) and returns
    # none; its info bits are the full decode's under every rule, in either
    # memory order and, on +/-1 words, in an integer decode too.  The
    # channel words at crossovers 0.1 and 0.4 are tie-rich; the real words
    # have ties at 5 % of their entries
    rng = np.random.default_rng(90 + m + r)
    params, rows = CodeParams(m, r), 24
    bits = rng.integers(0, 2, size=(rows, params.k), dtype=np.uint8)
    p = np.repeat([0.1, 0.4], rows // 2)[:, None]
    pm1 = encode_batch(bits, params) * np.where(rng.random((rows, params.n)) < p, -1.0, 1.0)
    real = rng.normal(size=(rows, params.n))
    real[rng.uniform(size=real.shape) < 0.05] = 0.0
    trials = np.arange(rows, dtype=np.uint64) + 300
    for options in MEMORY_ORDER_RULES:
        float64 = np.empty(rows * decoder._plan(m, r, algorithm == "phi", options.v_rule,
                                                False).need // 8)
        for y, works in ((pm1, (float64, _pm1_work(params, algorithm, options.v_rule, rows))),
                         (real, (float64,))):
            for batch in (np.ascontiguousarray(y), np.asfortranarray(y)):
                info, _, ops = decode_batch(batch, params, algorithm, options, trials)
                for work in works:
                    info_only, cw, ops_only = decode_batch(
                        batch, params, algorithm, options, trials, _work=work, _info_only=True)
                    assert cw is None and ops_only == ops
                    assert info_only.flags.f_contiguous == info.flags.f_contiguous
                    assert np.array_equal(info_only, info)


def test_certified_monte_carlo_decodes_run_unscaled(monkeypatch):
    # an integer decode, forced or not, runs the unscaled u step under
    # either rule; a direct decode, a float64 workspace and a single block,
    # traced or not, keep the options' rule, and so does the float64 genie.  run_wer and
    # path_statistics run unscaled where the budget certifies the tree, and
    # keep the rule on psi {12,3}, which needs 65 bits
    rules = []
    u_step = decoder._u_step

    def recording(y1, y2, v_hat, u_rule, out):
        rules.append(u_rule)
        return u_step(y1, y2, v_hat, u_rule, out)

    def recorded(call) -> set:
        rules.clear()
        call()
        return set(rules)

    monkeypatch.setattr(decoder, "_u_step", recording)
    params = CodeParams(8, 2)
    y = np.where(np.random.default_rng(91).random((16, params.n)) < 0.3, -1.0, 1.0)
    for algorithm in ("psi", "phi"):
        integer = _pm1_work(params, algorithm, PRODUCT, len(y))
        double = np.empty(len(y) * decoder._plan(8, 2, algorithm == "phi", PRODUCT,
                                                 False).need // 8)
        decode = decode_psi if algorithm == "psi" else decode_phi
        for u_rule in (SCALED, UNSCALED):
            options = DecoderOptions(u_rule=u_rule)
            for info_only in (False, True):
                assert recorded(lambda: decode_batch(y, params, algorithm, options, _work=integer,
                                                     _info_only=info_only)) == {UNSCALED}
                assert recorded(lambda: decode_batch(y, params, algorithm, options, _work=double,
                                                     _info_only=info_only)) == {u_rule}
            assert recorded(lambda: decode_batch(y, params, algorithm, options)) == {u_rule}
            for trace in (False, True):
                assert recorded(lambda: decode(y[0], params, replace(options, trace=trace))
                                ) == {u_rule}
    assert recorded(lambda: genie_batch(y, params, _work=_pm1_work(params, "psi", PRODUCT,
                                                                    len(y), True))) == {UNSCALED}
    assert recorded(lambda: genie_batch(y, params)) == {SCALED}
    for (m, r), expect in (((8, 2), {UNSCALED}), ((12, 3), {SCALED})):
        config = SimConfig(CodeParams(m, r), Channel.bsc(0.2), trials=40)
        assert recorded(lambda: run_wer(config)) == expect
        assert recorded(lambda: path_statistics(config)) == expect


def test_phi_first_order_is_one_biorthogonal_call():
    rng = np.random.default_rng(17)
    for m in (3, 5, 7):
        params = CodeParams(m, 1)
        y = rng.uniform(-1, 1, params.n)
        result = decode_phi(y, params)
        cw, info = md_biorthogonal(y, m - 1)
        assert np.array_equal(result.codeword, cw)
        assert np.array_equal(result.info, info)
        assert result.op_count == params.n * m + 2 * params.n


def test_repetition_and_full_space_roots():
    rng = np.random.default_rng(13)
    rep = CodeParams(4, 0)
    y = rng.uniform(-1, 1, 16)
    result = decode_psi(y, rep)
    assert result.op_count == 16 == decode_op_bound(rep, "psi")
    assert result.info.shape == (1,)
    full = CodeParams(3, 3)
    got = decode_psi(y[:8], full)
    assert np.array_equal(got.codeword, np.sign(y[:8]))


def _support_prefixes(params):
    return [node.prefix for node in plotkin_tree(params.m, params.r).nodes
            if node.kind == SPLIT and node.order == 1]


def test_genie_noiseless_fixed_point():
    params = CodeParams(5, 2)
    values, supports = genie_batch(np.ones((1, params.n)), params)
    assert values.shape == (1, params.k) and np.all(values == 1.0)
    # noiseless support sums equal the support size 2^(m-len(prefix)-1)
    prefixes = _support_prefixes(params)
    assert supports.shape == (1, len(prefixes))
    for prefix, value in zip(prefixes, supports[0]):
        assert value == float(1 << (params.m - len(prefix) - 1))


def test_genie_matches_trace_when_decisions_correct():
    # values close to +1 keep every decision at +1, so the real decoder's
    # recursion coincides with the genie-aided one, to the bit; {m,0} and
    # {m,m} roots among the codes
    rng = np.random.default_rng(14)
    for m, r in ((1, 0), (1, 1), (3, 1), (5, 0), (5, 5), (6, 2), (7, 3), (8, 0), (8, 2),
                 (8, 8)):
        params = CodeParams(m, r)
        y = 1.0 - 0.05 * rng.uniform(size=params.n)
        traced, decisions = _traced(y, params, DecoderOptions())
        values, _ = genie_batch(y[None, :], params)
        assert np.all(decisions == 1)
        assert np.array_equal(traced.view(np.int64), values[0].view(np.int64))


def test_genie_batch_independent_of_memory_order():
    # the same batch, row-major and symbol-major, gives the same end values
    # and support sums, to the bit and to the sign of zero
    rng = np.random.default_rng(17)
    for params in (CodeParams(5, 0), CodeParams(6, 2), CodeParams(8, 3), CodeParams(4, 4),
                   CodeParams(10, 1)):
        for rows in (1, 3, 64):
            y = rng.normal(size=(rows, params.n))
            y[rng.uniform(size=y.shape) < 0.2] = 0.0
            y[rng.uniform(size=y.shape) < 0.1] = -0.0
            values, supports = genie_batch(np.ascontiguousarray(y), params)
            values_f, supports_f = genie_batch(np.asfortranarray(y), params)
            assert np.array_equal(values_f.view(np.int64), values.view(np.int64))
            assert np.array_equal(supports_f.view(np.int64), supports.view(np.int64))


def test_genie_batch_column_order():
    rng = np.random.default_rng(15)
    params = CodeParams(6, 3)
    y = rng.uniform(-1, 1, (4, params.n))
    values, supports = genie_batch(y, params)
    assert values.shape == (4, params.k)
    # one support column per order-1 split node, in sorted prefix order
    prefixes = _support_prefixes(params)
    assert prefixes == sorted(prefixes) and len(set(prefixes)) == len(prefixes)
    assert supports.shape == (4, len(prefixes))
    for j, row in enumerate(y):  # each row alone gives the same floats
        values_j, supports_j = genie_batch(row[None, :], params)
        assert np.array_equal(values_j[0], values[j])
        assert np.array_equal(supports_j[0], supports[j])
    # the outermost order-1 node of {6,3} is {4,1} at prefix 00: its input
    # is the product of the four quarters, and the column sums the last half
    v = y[:, :32] * y[:, 32:]
    v = v[:, :16] * v[:, 16:]
    assert prefixes[0] == (0, 0)
    assert np.array_equal(supports[:, 0], v[:, 8:].sum(axis=1))
    # repetition and full-space roots have no order-1 split node
    for root in (CodeParams(6, 0), CodeParams(6, 6)):
        assert genie_batch(y, root)[1].shape == (4, 0)


def test_genie_left_end_matches_manual_recursion():
    rng = np.random.default_rng(16)
    params = CodeParams(3, 1)
    y = rng.uniform(-1, 1, 8)
    values, _ = genie_batch(y[None, :], params)
    yv = y[:4] * y[4:]
    assert enumerate_paths(params)[0].bits == (0, 1, 1)
    assert values[0, 0] == pytest.approx(yv.mean())
    yu = (y[:4] + y[4:]) / 2
    assert enumerate_paths(params)[1].bits == (1, 0, 1)
    assert values[0, 1] == pytest.approx((yu[:2] * yu[2:]).mean())
    # a full-space end value is the node's input symbol: path 110 of {3,1}
    # ends at the {1,1} node u(u(y)), whose first symbol is the midpoint
    # of yu's halves
    assert enumerate_paths(params)[2].bits == (1, 1, 0)
    assert values[0, 2] == pytest.approx((yu[0] + yu[2]) / 2)
