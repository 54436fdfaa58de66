import numpy as np
import pytest

from rmrec import (
    CodeParams,
    DecoderOptions,
    decode_batch,
    decode_op_bound,
    decode_phi,
    decode_psi,
    encode,
    encode_batch,
    enumerate_paths,
    genie_decode,
    hadamard_transform,
    md_biorthogonal,
    md_full_space,
    md_repetition,
    recalc_u,
    recalc_v,
)
from rmrec.core import SPLIT, extract_info_batch, plotkin_tree
from rmrec.decoder import (
    MIN_SUM,
    PRODUCT,
    SCALED,
    TIE_POSITIVE,
    TIE_RANDOM,
    UNSCALED,
    genie_batch,
)

from oracles import brute_codebook, butterfly_fht, md_oracle, popcount

DET = DecoderOptions(tie_rule=TIE_POSITIVE)


def test_recalc_v_product():
    assert np.array_equal(recalc_v([1, -1], [-1, -1]), [-1, 1])
    got = recalc_v([0.5, 0.2], [0.4, -1.0])
    assert np.allclose(got, [0.2, -0.2])


def test_recalc_v_min_sum():
    got = recalc_v([0.5, 0.2], [0.4, -1.0], MIN_SUM)
    assert np.allclose(got, [0.4, -0.2])


def test_recalc_v_length_mismatch():
    with pytest.raises(ValueError):
        recalc_v([1.0, 2.0], [1.0])


def test_recalc_u_rules():
    got = recalc_u([1, -1], [-1, -1], [-1, 1])
    assert np.array_equal(got, [1, -1])
    y = np.array([0.3, -0.7, 0.1])
    assert np.array_equal(recalc_u(y, y, np.ones(3)), y)
    scaled = recalc_u([0.25, -1], [0.5, 0.5], [1, -1])
    unscaled = recalc_u([0.25, -1], [0.5, 0.5], [1, -1], UNSCALED)
    assert np.array_equal(unscaled, 2 * scaled)


def test_scaled_recalcs_preserve_unit_range():
    rng = np.random.default_rng(18)
    y1 = rng.uniform(-1, 1, 1000)
    y2 = rng.uniform(-1, 1, 1000)
    v_hat = np.where(rng.uniform(size=1000) < 0.5, 1.0, -1.0)
    assert np.all(np.abs(recalc_v(y1, y2)) <= 1.0)
    assert np.all(np.abs(recalc_v(y1, y2, MIN_SUM)) <= 1.0)
    assert np.all(np.abs(recalc_u(y1, y2, v_hat)) <= 1.0)


def test_recalc_u_validation():
    with pytest.raises(ValueError):
        recalc_u([1.0], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        recalc_u([1.0, 1.0], [1.0, 1.0], [1.0, 0.5])


def test_md_repetition():
    decision, value = md_repetition([0.5, -0.2, 0.3, 0.1])
    assert decision == 1 and value == pytest.approx(0.175)
    decision, _ = md_repetition([-1, -1, -1, 1])
    assert decision == -1
    with pytest.raises(ValueError):
        md_repetition([])


def test_md_repetition_ties():
    assert md_repetition([1.0, -1.0], DET) == (1, 0.0)
    flips = [md_repetition([1.0, -1.0], trial=t)[0] for t in range(2000)]
    fraction = np.mean(np.array(flips) == 1)
    assert 0.45 < fraction < 0.55  # seeded coin is fair across trials
    again = [md_repetition([1.0, -1.0], trial=t)[0] for t in range(2000)]
    assert flips == again  # and reproducible


def test_md_full_space():
    assert np.array_equal(md_full_space([0.3, -0.2]), [1, -1])
    assert np.array_equal(md_full_space(np.zeros(4), DET), [1, 1, 1, 1])
    rng = np.random.default_rng(0)
    z = rng.normal(size=8)
    got = md_full_space(z)
    assert float(got @ z) == pytest.approx(np.abs(z).sum())


def test_md_end_nodes_reject_batches():
    # a (B, n) array is a batch, not one block of B*n symbols
    for decide in (md_repetition, md_full_space, lambda z: md_biorthogonal(z, 1)):
        with pytest.raises(ValueError):
            decide(np.ones((2, 4)))


def test_md_biorthogonal_examples():
    cw, info = md_biorthogonal(np.ones(4), 1)
    assert np.all(cw == 1) and np.all(info == 0)
    cw, _ = md_biorthogonal(np.array([0.9, 0.8, -0.7, -0.6]), 1)
    assert np.array_equal(cw, [1, 1, -1, -1])
    with pytest.raises(ValueError):
        md_biorthogonal(np.ones(6), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        md_biorthogonal(np.ones(1), -1)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_md_biorthogonal_matches_brute_force(g):
    rng = np.random.default_rng(100 + g)
    book = brute_codebook(g)
    for _ in range(300):
        z = rng.normal(size=1 << (g + 1))
        cw, info = md_biorthogonal(z, g)
        assert np.array_equal(cw, md_oracle(z, book).astype(np.int8))
        assert np.array_equal(encode(info, CodeParams(g + 1, 1)), cw)


@pytest.mark.parametrize("g", range(10))
def test_biorthogonal_codebook_structure(g):
    from rmrec import biorthogonal_codebook
    from rmrec.decoder import biorthogonal_codeword

    book = biorthogonal_codebook(g)
    width = 1 << (g + 1)
    with pytest.raises(IndexError):
        biorthogonal_codeword(width, width)
    assert book.shape == (2 * width, width)
    assert np.all(book[0] == 1) and np.array_equal(book[1], -book[0])
    supports = (book < 0).sum(axis=1)
    assert np.all(supports[2:] == 1 << g)
    gram = book @ book.T  # distinct rows correlate at 0 or -l (antipodes)
    off = gram[~np.eye(2 * width, dtype=bool)]
    assert set(np.unique(off)) <= {0.0, -float(width)}
    assert np.array_equal(book, brute_codebook(g))
    if g >= 1:  # every row is its own unique FHT winner, with no tie
        info, cw, _ = decode_batch(book, CodeParams(g + 1, 1), "phi")
        assert np.array_equal(cw, book)
        assert np.array_equal(info, extract_info_batch(book, g + 1, 1))


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
    with pytest.raises(ValueError):
        hadamard_transform(np.ones(5))


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


def test_hadamard_transform_rows_independent_of_batch():
    # a row's result must not depend on the batch around it: decode_batch
    # and run_wer promise the same output under any batching
    rng = np.random.default_rng(6)
    for logw in range(12):
        x = rng.normal(size=(80, 1 << logw))
        alone = np.array([hadamard_transform(row) for row in x])
        for size in (1, 3, 7, 64):
            for start in (0, 1, 5, 16):
                rows = slice(start, start + size)
                assert np.array_equal(hadamard_transform(x[rows]), alone[rows])
        stacked = x[:64].reshape(4, 16, -1)
        assert np.array_equal(hadamard_transform(stacked), alone[:64].reshape(stacked.shape))


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


def test_single_decode_refuses_nan_symbols():
    # finite input whose products overflow to inf, then to NaN
    params = CodeParams(3, 1)
    y = np.full(8, 1e200)
    y[2] = -1e200
    with pytest.raises(ValueError, match="NaN"):
        decode_psi(y, params)
    with np.errstate(invalid="ignore"):  # the batch path does not check
        _, cw, _ = decode_batch(y[None, :], params)
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


def test_min_sum_decodes_noiseless():
    params = CodeParams(6, 2)
    rng = np.random.default_rng(7)
    info = rng.integers(0, 2, params.k).astype(np.uint8)
    result = decode_psi(encode(info, params).astype(float), params,
                        DecoderOptions(v_rule=MIN_SUM))
    assert np.array_equal(result.info, info)


def test_decode_order_lemma():
    rng = np.random.default_rng(8)
    params = CodeParams(5, 2)
    y = rng.uniform(-1, 1, params.n)
    for algorithm, decode in (("psi", decode_psi), ("phi", decode_phi)):
        result = decode(y, params, DecoderOptions(trace=True))
        paths = enumerate_paths(params)
        assert set(result.trace) == set(paths)
        orders = [result.trace[p].order for p in paths]
        assert orders == sorted(orders) and len(set(orders)) == len(orders)


def test_trace_decisions_match_info():
    rng = np.random.default_rng(9)
    for (m, r), decode in [((6, 3), decode_psi), ((6, 2), decode_phi), ((7, 3), decode_phi)]:
        params = CodeParams(m, r)
        y = rng.uniform(-1, 1, params.n)
        result = decode(y, params, DecoderOptions(trace=True))
        assert set(result.info) == {0, 1}
        for j, path in enumerate(enumerate_paths(params)):
            assert result.trace[path].decision == 1 - 2 * int(result.info[j])


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
    rng = np.random.default_rng(12)
    params = CodeParams(5, 2)
    y = rng.uniform(-1, 1, (16, params.n))
    y[rng.uniform(size=y.shape) < 0.05] = 0.0  # exercise tie sites
    info, cw, ops = decode_batch(y, params, "phi", DecoderOptions(tie_seed=5))
    for i in range(16):
        single = decode_phi(y[i], params, DecoderOptions(tie_seed=5), trial=i)
        assert np.array_equal(single.info, info[i])
        assert np.array_equal(single.codeword, cw[i])
        assert single.op_count == ops


MEMORY_ORDER_RULES = [DecoderOptions(u_rule=u, v_rule=v, tie_rule=t, tie_seed=9)
                      for u in (SCALED, UNSCALED) for v in (PRODUCT, MIN_SUM)
                      for t in (TIE_RANDOM, TIE_POSITIVE)]


@pytest.mark.parametrize("m, r", [(5, 0), (6, 2), (7, 3), (8, 2)])
def test_rows_independent_of_memory_order(m, r):
    # A C-ordered batch runs in row-major order, an F-ordered one runs
    # symbol-major (each node's halves are contiguous slabs); the end-node
    # reductions must still round as on one row alone
    rng = np.random.default_rng(20 + m)
    params = CodeParams(m, r)
    half = rng.normal(size=(20, params.n // 2))
    # rows whose exact sum is 0: the rounded sum, and hence a repetition
    # root's decision, depends on the order of the additions
    cancelling = rng.permuted(np.hstack([half, -half]), axis=1)
    y = np.vstack([rng.normal(size=(20, params.n)), cancelling,
                   rng.integers(-1, 2, size=(20, params.n)).astype(np.float64)])
    y[:20][rng.uniform(size=(20, params.n)) < 0.05] = 0.0  # ties on real rows too
    trials = np.arange(len(y), dtype=np.uint64) + 1000
    symbol_major = np.asfortranarray(y)
    for algorithm in ("psi", "phi") if r >= 1 else ("psi",):
        for options in MEMORY_ORDER_RULES:
            info, cw, _ = decode_batch(y, params, algorithm, options, trials)
            info_f, cw_f, _ = decode_batch(symbol_major, params, algorithm, options, trials)
            assert cw_f.flags.f_contiguous and not cw_f.flags.c_contiguous
            assert np.array_equal(info_f, info) and np.array_equal(cw_f, cw)
            for j in range(len(y)):
                info_j, cw_j, _ = decode_batch(y[j], params, algorithm, options, trials[j:j + 1])
                assert np.array_equal(info_j[0], info[j]) and np.array_equal(cw_j[0], cw[j])
    bits = rng.integers(0, 2, size=(len(y), params.k), dtype=np.uint8)
    encoded_f = encode_batch(np.asfortranarray(bits), params)
    if params.k > 1:  # a (B, 1) block is C- and F-contiguous at once
        assert encoded_f.flags.f_contiguous and not encoded_f.flags.c_contiguous
    assert np.array_equal(encoded_f, encode_batch(bits, params))


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


def test_genie_noiseless_fixed_point():
    params = CodeParams(5, 2)
    trace = genie_decode(np.ones(params.n), params)
    assert all(v == 1.0 for v in trace.end_values.values())
    assert len(trace.end_values) == params.k
    # noiseless support sums equal the support size 2^(m-len(prefix)-1)
    for prefix, value in trace.support_sums.items():
        assert value == float(1 << (params.m - len(prefix) - 1))


def test_genie_matches_trace_when_decisions_correct():
    # values close to +1 keep every decision at +1, so the real decoder's
    # recursion coincides with the genie-aided one
    rng = np.random.default_rng(14)
    params = CodeParams(6, 2)
    y = 1.0 - 0.05 * rng.uniform(size=params.n)
    result = decode_psi(y, params, DecoderOptions(trace=True))
    trace = genie_decode(y, params)
    for path, rec in result.trace.items():
        assert rec.value == pytest.approx(trace.end_values[path], rel=1e-12)


def test_genie_batch_column_order():
    rng = np.random.default_rng(15)
    params = CodeParams(6, 3)
    y = rng.uniform(-1, 1, (4, params.n))
    values, supports = genie_batch(y, params)
    assert values.shape == (4, params.k)
    # one support column per order-1 split node, in sorted prefix order
    nodes = [node for node in plotkin_tree(params.m, params.r).nodes
             if node.kind == SPLIT and node.order == 1]
    prefixes = [node.prefix for node in nodes]
    assert prefixes == sorted(prefixes) and len(set(prefixes)) == len(prefixes)
    assert supports.shape == (4, len(nodes))
    for j, row in enumerate(y):
        trace = genie_decode(row, params)
        assert list(trace.end_values) == list(enumerate_paths(params))
        assert list(trace.end_values.values()) == list(values[j])
        assert list(trace.support_sums) == prefixes
        assert list(trace.support_sums.values()) == list(supports[j])
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
    trace = genie_decode(y, params)
    yv = y[:4] * y[4:]
    leftmost = enumerate_paths(params)[0]  # 011
    assert trace.end_values[leftmost] == pytest.approx(yv.mean())
    yu = (y[:4] + y[4:]) / 2
    second = enumerate_paths(params)[1]  # 101
    assert trace.end_values[second] == pytest.approx((yu[:2] * yu[2:]).mean())
