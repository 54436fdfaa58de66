import dataclasses
import functools
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmrec.simulate
from rmrec import (
    Channel,
    CodeParams,
    DecoderOptions,
    GenieReport,
    SimConfig,
    apply_channel,
    decode_batch,
    decode_psi,
    encode,
    enumerate_paths,
    path_statistics,
    run_wer,
    sweep,
)
from rmrec.analysis import (
    moments_for_path,
    phi_weakest_variance,
    predict_errors,
    q_function,
)
from rmrec.core import RIGHT_END, plotkin_tree
from rmrec.decoder import (
    ALG_PSI,
    PRODUCT,
    SCALED,
    TIE_POSITIVE,
    TIE_RANDOM,
    UNSCALED,
    _tie_signs,
    genie_batch,
)
from rmrec.simulate import PURPOSE_INFO, _received, binomial_ci, stream_uniforms


def _config(m=7, r=2, p=0.12, **kw):
    base = dict(params=CodeParams(m, r), channel=Channel.bsc(p),
                trials=2000, master_seed=99)
    base.update(kw)
    return SimConfig(**base)


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel.bsc(0.5)
    with pytest.raises(ValueError):
        Channel.bsc(-0.01)
    for sigma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Channel.awgn_hard(sigma)
    with pytest.raises(ValueError):
        Channel("fading", 0.1)


def test_awgn_hard_crossover():
    channel = Channel.awgn_hard(1.0)
    assert channel.crossover == pytest.approx(q_function(1.0))
    assert channel.residual == pytest.approx(1 - 2 * q_function(1.0))
    assert Channel.bsc(0.1).sigma == pytest.approx(
        Channel.awgn_hard(Channel.bsc(0.1).sigma).param)
    assert Channel.awgn_hard(0.75).sigma == 0.75
    # a crossover whose residual rounds to one is as noiseless as p = 0
    assert Channel.bsc(1e-17).residual == 1.0 and Channel.bsc(1e-17).sigma == 0.0
    assert Channel.bsc(6e-17).sigma > 0.0
    assert str(Channel.bsc(0.1)) == "bsc p=0.1"
    assert str(Channel.awgn_hard(0.75)) == "awgn sigma=0.75"


def test_apply_channel_noiseless_and_flip_rate():
    cw = np.ones(1 << 20)
    assert np.array_equal(apply_channel(cw, Channel.bsc(0.0)), cw)
    noisy = apply_channel(cw, Channel.bsc(0.1), master_seed=1)
    assert np.all(np.abs(noisy) == 1)
    flip_fraction = np.mean(noisy < 0)
    assert abs(flip_fraction - 0.1) < 1e-3
    awgn = apply_channel(cw, Channel.awgn_hard(1.0), master_seed=2)
    assert abs(np.mean(awgn < 0) - q_function(1.0)) < 1.5e-3


@pytest.mark.parametrize("order", "CF")
def test_received_int8_matches_float64(monkeypatch, order):
    # the int8 draw writes the same compare in int8: the same symbols as
    # the float64 draw, in the same memory order, whether or not the chunks
    # of rows divide the block
    channel = Channel.bsc(0.3)
    for n, rows, chunk_rows in ((64, range(5, 28), 4), (16, range(0, 24), 8),
                                (256, range(3, 4), 1)):
        monkeypatch.setattr(rmrec.simulate, "_CHUNK_SYMBOLS", chunk_rows * n)
        double = rmrec.simulate._received(channel, 12, n, rows, order)
        small = rmrec.simulate._received(channel, 12, n, rows, order, np.int8)
        assert double.dtype == np.float64 and small.dtype == np.int8
        assert small.shape == double.shape == (len(rows), n)
        flag = "C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"
        assert small.flags[flag] and double.flags[flag]
        assert np.array_equal(small, double)
        assert set(np.unique(small)) == {-1, 1}
        monkeypatch.setattr(rmrec.simulate, "_CHUNK_SYMBOLS", 1 << 20)  # one chunk
        assert np.array_equal(rmrec.simulate._received(channel, 12, n, rows, order), double)


@pytest.mark.parametrize("order", "CF")
def test_received_block_draws_each_trials_own_words(monkeypatch, order):
    # a block draws its chunks in turn from one Philox generator: trial i's
    # symbols are still those of its own stream rows, padding words (n = 6
    # takes 8 words a trial) skipped, with a chunk boundary inside the block
    monkeypatch.setattr(rmrec.simulate, "_CHUNK_SYMBOLS", 4 * 6)
    channel, n, rows = Channel.bsc(0.4), 6, range(3, 17)
    threshold = rmrec.simulate._threshold(0.4) << np.uint64(11)
    expect = np.vstack([np.where(rmrec.simulate._stream_raw(5, rmrec.simulate.PURPOSE_CHANNEL,
                                                            trial, 1, n) < threshold, -1, 1)
                        for trial in rows])
    for dtype in (np.float64, np.int8):
        assert np.array_equal(rmrec.simulate._received(channel, 5, n, rows, order, dtype), expect)


def test_monte_carlo_decodes_run_integer_only_on_certified_trees(monkeypatch):
    # run_wer and path_statistics decode int8 words in a byte workspace
    # where the bit budget certifies the tree, psi {9,2} (25 bits) among
    # them, and float64 words in a float64 workspace elsewhere: psi {12,3}
    # needs 65 bits
    dtypes = []

    def recording(function):
        def recorded(y, *args, _work, **kwargs):
            dtypes.append((y.dtype, _work.dtype))
            return function(y, *args, _work=_work, **kwargs)
        return recorded

    for name in ("decode_batch", "genie_batch"):
        monkeypatch.setattr(rmrec.simulate, name, recording(getattr(rmrec.simulate, name)))
    integer, double = (np.int8, np.uint8), (np.float64, np.float64)
    for run, m, r, algorithm, expect in (
            (run_wer, 8, 2, "psi", integer), (run_wer, 9, 2, "psi", integer),
            (run_wer, 9, 2, "phi", integer), (run_wer, 12, 3, "psi", double),
            (path_statistics, 12, 1, "psi", integer), (path_statistics, 12, 3, "psi", double)):
        dtypes.clear()
        run(_config(m=m, r=r, p=0.2, algorithm=algorithm, trials=40))
        assert dtypes and all(dtype == expect for dtype in dtypes)


def test_genie_reports_match_float64(monkeypatch):
    # path_statistics reports the same from the integer genie as from the
    # float64 one.  {6,4} at crossover 0.3 has -0.0 end values
    config = _config(m=6, r=4, p=0.3, trials=2000)
    report = path_statistics(config)
    width = rmrec.decoder._plan(6, 4, False, PRODUCT, False).need // 8
    monkeypatch.setattr(rmrec.simulate, "_pm1_workspace",
                        lambda *_, **__: (np.float64, np.float64, width))
    float64 = path_statistics(config)
    assert _hexed(report) == _hexed(float64)


def test_apply_channel_rejects_batches():
    with pytest.raises(ValueError):  # one trial's flips would repeat on every row
        apply_channel(np.ones((4, 8)), Channel.bsc(0.3))


def test_stream_uniforms_batch_independent():
    whole = stream_uniforms(7, 1, 0, 20, 10)
    parts = np.vstack([stream_uniforms(7, 1, 0, 8, 10),
                       stream_uniforms(7, 1, 8, 12, 10)])
    assert np.array_equal(whole, parts)
    other_purpose = stream_uniforms(7, 2, 0, 20, 10)
    assert not np.array_equal(whole, other_purpose)


def test_stream_uniforms_are_raw_words_scaled():
    raw = rmrec.simulate._stream_raw(7, 1, 3, 5, 10)  # 10: not a multiple of 4
    assert raw.shape == (5, 10) and raw.dtype == np.uint64
    assert np.array_equal(stream_uniforms(7, 1, 3, 5, 10),
                          (raw >> np.uint64(11)) * 2.0 ** -53)


THRESHOLD_P = (0.0, 2.0 ** -53, 0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0),
               0.375, np.nextafter(0.5, 0.0), Channel.awgn_hard(1.0).crossover)


def _words_around(p: float) -> np.ndarray:
    """Every raw word whose top 53 bits are t - 1, t or t + 1, t = ceil(p 2^53):
    (t << 11) - 1, t << 11 and all their neighbours in the low 11 bits."""
    t = int(np.ceil(p * 2.0 ** 53))
    tops = [top for top in (t - 1, t, t + 1) if 0 <= top < 1 << 53]
    return np.array([(top << 11) + low for top in tops for low in range(1 << 11)],
                    dtype=np.uint64)


class _Words:
    """Stands in for a block's Philox generator: hands out `words` in order."""

    def __init__(self, words):
        self.words, self.used = words, 0

    def random_raw(self, count):
        self.used += count
        return self.words[self.used - count:self.used].copy()


@pytest.mark.parametrize("p", THRESHOLD_P)
def test_channel_threshold_is_exact(monkeypatch, p):
    raw = _words_around(p)
    exact = (raw >> np.uint64(11)) * 2.0 ** -53 < p
    assert np.array_equal(raw >> np.uint64(11) < rmrec.simulate._threshold(p), exact)
    # the channel itself, fed these words by its generator
    monkeypatch.setattr(rmrec.simulate, "_philox", lambda *args: _Words(raw))
    assert np.array_equal(apply_channel(np.ones(raw.size), Channel.bsc(p)) < 0, exact)
    # and the blocks of a Monte Carlo run, in both dtypes and memory orders,
    # drawn in chunks of 16 rows of 64 words
    n = 64
    words = raw.reshape(-1, n)
    monkeypatch.setattr(rmrec.simulate, "_philox",
                        lambda seed, purpose, first, values: _Words(words[first:].ravel()))
    monkeypatch.setattr(rmrec.simulate, "_CHUNK_SYMBOLS", 16 * n)
    expected = np.where(exact.reshape(-1, n), -1.0, 1.0)
    for order in "CF":
        for dtype in (np.float64, np.int8):
            block = rmrec.simulate._received(Channel.bsc(p), 0, n, range(len(words)), order,
                                             dtype)
            assert block.dtype == dtype
            assert block.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]
            assert np.array_equal(block, expected)


def test_info_bit_threshold_is_exact():
    raw = _words_around(0.5)
    assert int(rmrec.simulate._HALF) == 1 << 63
    assert np.array_equal(raw < rmrec.simulate._HALF,
                          (raw >> np.uint64(11)) * 2.0 ** -53 < 0.5)


def test_run_wer_noiseless():
    report = run_wer(_config(p=0.0, trials=500))
    assert report.wer == 0.0 and report.word_errors == 0
    assert report.ber == 0.0


def test_run_wer_deterministic():
    config = _config()
    a, b = run_wer(config), run_wer(config)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_run_wer_counts_independent_of_batch_size():
    a = run_wer(_config())
    b = run_wer(_config(batch_size=137))
    assert (a.word_errors, a.bit_errors) == (b.word_errors, b.bit_errors)


def test_run_wer_random_codewords_agree():
    ones = run_wer(_config(p=0.13, trials=4000))
    rand = run_wer(_config(p=0.13, trials=4000, transmitted="random"))
    gap = abs(ones.wer - rand.wer)
    assert gap <= ones.wer_half_width + rand.wer_half_width


def test_run_wer_per_path_errors():
    report = run_wer(_config(p=0.14, trials=3000), per_path=True)
    assert len(report.path_error_rates) == report.config.params.k
    total = sum(rate for rate, _ in report.path_error_rates.values())
    assert report.ber == pytest.approx(total / report.config.params.k)


def test_ops_constant_across_trials():
    config = _config(trials=100)
    report = run_wer(config)
    unrelated = np.random.default_rng(19).uniform(-1, 1, (3, config.params.n))
    _, _, ops = decode_batch(unrelated, config.params, config.algorithm, config.options)
    assert report.ops_max == ops


def test_genie_requires_all_ones():
    with pytest.raises(ValueError):
        path_statistics(_config(transmitted="random"))


def test_genie_underflow_raises_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("the channel was drawn before the underflow check")

    monkeypatch.setattr(rmrec.simulate, "stream_uniforms", no_draw)
    monkeypatch.setattr(rmrec.simulate, "_stream_raw", no_draw)
    config = _config(m=10, r=9, p=0.4, trials=10)  # eps = 0.2
    with pytest.raises(ValueError, match="underflow"):
        path_statistics(config)


def test_genie_noiseless_statistics():
    report = path_statistics(_config(p=0.0, trials=50))
    assert isinstance(report, GenieReport) and report.trials == 50
    for stats in [*report.path_stats.values(), *report.node_stats.values()]:
        assert type(stats.mean) is float and type(stats.variance) is float
        assert stats.mean == 1.0 and stats.variance == 0.0
        assert stats.error_rate == 0.0


def test_genie_moments_match_theory():
    eps = 0.7
    config = _config(m=8, r=2, p=(1 - eps) / 2, trials=30_000, master_seed=5)
    report = path_statistics(config)
    params = config.params
    for path, stats in report.path_stats.items():
        theory = moments_for_path(params, path, eps)
        assert abs(stats.mean - 1.0) < 0.03
        assert abs(stats.variance - theory.variance) <= max(
            3 * stats.variance_half_width, 0.05 * theory.variance)
    # half-block support sums at the outermost first-order node
    node = report.node_stats[(0,)]
    assert node.mean == pytest.approx(1.0, abs=0.02)
    assert node.variance == pytest.approx(
        phi_weakest_variance(params, eps), rel=0.15)


def test_genie_conditioning_consistency():
    # unconditional per-bit error rates are dominated by the running sum
    # of genie-aided conditional rates, and the block rate is bracketed
    eps = 0.66
    config = _config(m=6, r=2, p=(1 - eps) / 2, trials=20_000, master_seed=6)
    genie = path_statistics(config)
    plain = run_wer(config, per_path=True)
    paths = sorted(genie.path_stats)
    running = 0.0
    slack = 0.0
    for path in paths:
        stats = genie.path_stats[path]
        running += stats.error_rate
        slack += stats.error_half_width
        rate, half = plain.path_error_rates[path]
        assert rate <= running + slack + half
    lower = genie.path_stats[paths[0]]
    assert plain.wer + plain.wer_half_width >= lower.error_rate - lower.error_half_width
    assert plain.wer - plain.wer_half_width <= running + slack


def test_genie_weakest_path_dominates():
    eps = 0.62
    config = _config(m=8, r=2, p=(1 - eps) / 2, trials=30_000, master_seed=7)
    report = path_statistics(config)
    star = enumerate_paths(config.params)[0]
    best = report.path_stats[star]
    for stats in report.path_stats.values():
        assert stats.error_rate - stats.error_half_width <= best.error_rate + best.error_half_width


_IDENTITY_RUNS = {(8, 2): (0.15, 2000), (6, 2): (0.12, 4000), (5, 0): (0.3, 4000),
                  (6, 6): (0.01, 4000), (4, 1): (0.2, 4000)}


@pytest.mark.parametrize("tie_rule", (TIE_POSITIVE, TIE_RANDOM))
@pytest.mark.parametrize("u_rule", (SCALED, UNSCALED))
@pytest.mark.parametrize("m, r", sorted(_IDENTITY_RUNS))
def test_genie_predicts_every_psi_word_error(m, r, u_rule, tie_rule):
    # with every earlier decision right, psi's end values are the genie's:
    # its first wrong decision is the genie's first column that is negative,
    # or zero with the tie coin -1 at the column's own site
    params, (p, trials) = CodeParams(m, r), _IDENTITY_RUNS[m, r]
    options = DecoderOptions(u_rule=u_rule, v_rule=PRODUCT, tie_rule=tie_rule, tie_seed=11)
    received = _received(Channel.bsc(p), 11, params.n, range(trials), "C", np.float64)
    values, _ = genie_batch(received, params)
    sites = np.empty(params.k, dtype=np.uint64)
    for leaf in plotkin_tree(m, r).leaves:  # a full space's column c ties at site + c
        sites[leaf.info] = leaf.site + (np.arange(len(leaf.paths)) if leaf.kind == RIGHT_END else 0)
    predicted = values < 0
    if tie_rule == TIE_RANDOM:
        rows, cols = np.nonzero(values == 0)
        predicted[rows, cols] = _tie_signs(11, rows, sites[cols]) < 0
    trial_idx = np.arange(trials, dtype=np.uint64)
    wrong = decode_batch(received, params, ALG_PSI, options, trial_idx)[0] != 0
    errs = predicted.any(axis=1)
    assert np.array_equal(errs, wrong.any(axis=1)) and errs.any()
    assert np.array_equal(predicted[errs].argmax(axis=1), wrong[errs].argmax(axis=1))
    config = SimConfig(params, Channel.bsc(p), ALG_PSI, options, trials, master_seed=11)
    assert run_wer(config).word_errors == int(errs.sum())


def test_sweep_single_point_equals_run():
    config = _config(trials=500)
    (only,) = sweep(config, [config.channel])
    assert dataclasses.asdict(only) == dataclasses.asdict(run_wer(config))
    with pytest.raises(ValueError):
        sweep(config, [])


def test_sweep_monotone_wer():
    config = _config(trials=4000)
    grid = [Channel.bsc(p) for p in (0.10, 0.13, 0.16, 0.19)]
    for algorithm in ("psi", "phi"):
        reports = sweep(dataclasses.replace(config, algorithm=algorithm), grid)
        for lo, hi in zip(reports, reports[1:]):
            assert lo.wer <= hi.wer + lo.wer_half_width + hi.wer_half_width


def test_binomial_ci():
    rate, half = binomial_ci(500, 1000)
    assert rate == 0.5
    assert half == pytest.approx(1.96 * np.sqrt(0.25 / 1000), rel=1e-2)
    rate, half = binomial_ci(0, 1000)  # Wilson fallback keeps width positive
    assert rate == 0.0 and half > 0.0
    rate, half = binomial_ci(2, 1000)
    assert half > 1.96 * np.sqrt(0.002 * 0.998 / 1000)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        SimConfig(params=CodeParams(3, 1), channel=Channel.bsc(0.1),
                  algorithm="viterbi")
    with pytest.raises(ValueError):
        SimConfig(params=CodeParams(3, 1), channel=Channel.bsc(0.1),
                  transmitted="codebook")
    with pytest.raises(ValueError):
        _config(batch_size=-7)


def test_config_and_predictions_check_the_algorithm_as_the_decoder_does():
    # phi on a repetition code is refused where the config is made, with
    # the decoder's message, not by a pool thread's first decode; the
    # predictions of phi on it are refused with the same message
    with pytest.raises(ValueError, match="phi requires r >= 1"):
        SimConfig(CodeParams(4, 0), Channel.bsc(0.1), algorithm="phi")
    with pytest.raises(ValueError, match="unknown algorithm 'chase'"):
        SimConfig(CodeParams(4, 1), Channel.bsc(0.1), algorithm="chase")
    with pytest.raises(ValueError, match="phi requires r >= 1"):
        predict_errors(CodeParams(4, 0), 0.1, "phi")
    with pytest.raises(ValueError, match="unknown algorithm 'chase'"):
        predict_errors(CodeParams(4, 1), 0.1, "chase")


def test_min_sum_simulation_runs():
    config = _config(trials=500, options=DecoderOptions(v_rule="min-sum"))
    report = run_wer(config)
    assert 0.0 <= report.wer <= 1.0


def _hexed(value):
    """A report as nested plain values, every float as its hex string."""
    if dataclasses.is_dataclass(value):
        return {f.name: _hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value.hex() if isinstance(value, float) else value


# 101 trials: the automatic batch is 101 rows, and 3 and 5 divide neither it
# nor 7
_INVARIANCE_RUNS = {
    "phi all-ones": lambda batch: run_wer(
        _config(m=6, r=2, p=0.15, algorithm="phi", trials=101, batch_size=batch)),
    "psi random": lambda batch: run_wer(
        _config(m=6, r=2, p=0.15, transmitted="random", trials=101, batch_size=batch),
        per_path=True),
    "genie": lambda batch: path_statistics(
        _config(m=6, r=2, p=0.15, trials=101, batch_size=batch)),
}


def test_workers_are_the_usable_cores(monkeypatch):
    monkeypatch.setattr(rmrec.simulate.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert rmrec.simulate._workers() == 3
    # where the platform has no affinity mask, every core counts
    monkeypatch.delattr(rmrec.simulate.os, "sched_getaffinity")
    monkeypatch.setattr(rmrec.simulate.os, "cpu_count", lambda: 6)
    assert rmrec.simulate._workers() == 6
    monkeypatch.setattr(rmrec.simulate.os, "cpu_count", lambda: None)
    assert rmrec.simulate._workers() == 1


def test_row_blocks_cut_batches_in_order(monkeypatch):
    monkeypatch.setattr(rmrec.simulate, "_workers", lambda: 3)
    wide = rmrec.simulate._MIN_BLOCK_SYMBOLS
    caps = rmrec.simulate._MAX_BLOCK_SYMBOLS
    # one block per worker, each of at least _MIN_BLOCK_SYMBOLS symbols
    cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 10, 7, wide // 2))
    assert cut == [[range(0, 2), range(2, 4), range(4, 7)], [range(7, 10)]]
    # too few symbols for two blocks: one block per batch
    cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 10, 7, wide // 4))
    assert cut == [[range(0, 7)], [range(7, 10)]]
    # blocks hold at most _MAX_BLOCK_SYMBOLS[order] symbols, more blocks than
    # workers where needed, and never less than a row
    for order in "CF":
        cap = caps[order]
        cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 12, 10, cap // 2, order))
        assert cut == [[range(0, 2), range(2, 4), range(4, 6), range(6, 8), range(8, 10)],
                       [range(10, 11), range(11, 12)]]
        cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 3, 3, 4 * cap, order))
        assert cut == [[range(0, 1), range(1, 2), range(2, 3)]]
    # row-major blocks are capped at fewer symbols than symbol-major ones
    cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 12, 10, caps["F"] // 2))
    assert cut == [[range(i, i + 1) for i in range(10)], [range(10, 11), range(11, 12)]]
    # one worker: a capped batch is still cut, and its blocks run one after
    # another on the pool's one thread
    monkeypatch.setattr(rmrec.simulate, "_workers", lambda: 1)
    for order in "CF":
        cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 4, 4, caps[order] // 2, order))
        assert cut == [[range(0, 2), range(2, 4)]]
    # never more blocks than rows
    monkeypatch.setattr(rmrec.simulate, "_workers", lambda: 3)
    monkeypatch.setattr(rmrec.simulate, "_MIN_BLOCK_SYMBOLS", 1)
    cut = list(rmrec.simulate._row_blocks(lambda rows, _: rows, 3, 2, 64))
    assert cut == [[range(0, 1), range(1, 2)], [range(2, 3)]]


def test_no_workspace_outlives_its_call(monkeypatch):
    # A direct decode's workspace lives for the call, a run's for the run,
    # one per pool thread: what a call leaves allocated is its
    # returned arrays and a few KiB of Python objects, against a workspace of
    # 24 MiB for the decode and 8 MiB per pool thread for the run.
    params = CodeParams(12, 2)
    y = np.where(np.random.default_rng(5).random((512, params.n)) < 0.3, -1.0, 1.0)
    config = _config(m=10, r=2, p=0.27, algorithm="phi", trials=2048)
    decode_batch(y[:2], params, "phi")
    for workers in (1, 2):  # caches, and the thread pool's imports
        monkeypatch.setattr(rmrec.simulate, "_workers", lambda: workers)
        run_wer(dataclasses.replace(config, trials=1024))
    slack = 4096
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        info, cw, _ = decode_batch(y, params, "phi")
        held = tracemalloc.get_traced_memory()[0] - start
        assert held <= sys.getsizeof(info) + sys.getsizeof(cw) + slack
        del info, cw
        for workers in (1, 2):
            monkeypatch.setattr(rmrec.simulate, "_workers", lambda: workers)
            start = tracemalloc.get_traced_memory()[0]
            report = run_wer(config)
            assert tracemalloc.get_traced_memory()[0] - start <= slack
            assert report.trials == config.trials
    finally:
        tracemalloc.stop()


def _run_width(params, algorithm, forced):
    """Workspace bytes per row of a run's integer decode, forced (the
    genie's) or not, under the product rule: every run here decodes on
    integers."""
    _, dtype, width = rmrec.decoder._pm1_workspace(params, algorithm, PRODUCT, forced)
    assert dtype == np.uint8
    return width


def test_pool_workspaces_fit_their_decodes(monkeypatch):
    # A pool thread holds a workspace as wide as the decode of the run's
    # largest block needs: every decode fits its thread's, and the largest
    # block's decode fills it.  Every batch of 32 rows here goes out as two
    # blocks.
    monkeypatch.setattr(rmrec.simulate, "_workers", lambda: 2)
    monkeypatch.setattr(rmrec.simulate, "_MIN_BLOCK_SYMBOLS", 1)
    requests = []

    def recording(function, forced):
        def recorded(y, params, *args, _work, **kwargs):
            algorithm = args[0] if args else "psi"  # the genie's is a forced psi decode
            requests.append((len(y) * _run_width(params, algorithm, forced), _work.size))
            return function(y, params, *args, _work=_work, **kwargs)
        return recorded

    for name in ("decode_batch", "genie_batch"):
        monkeypatch.setattr(rmrec.simulate, name,
                            recording(getattr(rmrec.simulate, name), name == "genie_batch"))
    for run in (lambda config: run_wer(dataclasses.replace(config, algorithm="psi")),
                lambda config: run_wer(dataclasses.replace(config, algorithm="phi")),
                path_statistics):
        requests.clear()
        run(_config(m=7, r=2, p=0.15, trials=96, batch_size=32))
        assert len(requests) == 6
        assert all(size <= given for size, given in requests)
        assert any(size == given for size, given in requests)
    # a final batch too short for two blocks runs as one block, larger than
    # the blocks of a full batch: the workspaces fit it too
    monkeypatch.setattr(rmrec.simulate, "_MIN_BLOCK_SYMBOLS", 10 << 7)
    requests.clear()
    run_wer(_config(m=7, r=2, p=0.15, trials=39, batch_size=20))
    width = _run_width(CodeParams(7, 2), "psi", False)
    assert requests == [(10 * width, 19 * width)] * 2 + [(19 * width, 19 * width)]


@pytest.mark.parametrize("batch", (1, 7, 0))
@pytest.mark.parametrize("run", sorted(_INVARIANCE_RUNS))
def test_reports_independent_of_worker_count(monkeypatch, run, batch):
    monkeypatch.setattr(rmrec.simulate, "_MIN_BLOCK_SYMBOLS", 1)  # cut small batches too
    reports = []
    # the default row-major cap, then one of three rows' symbols (m = 6),
    # which cuts phi and genie batches into blocks of at most three rows
    for cap in (rmrec.simulate._MAX_BLOCK_SYMBOLS["C"], 3 << 6):
        monkeypatch.setitem(rmrec.simulate._MAX_BLOCK_SYMBOLS, "C", cap)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(rmrec.simulate, "_workers", lambda: workers)
            reports.append(_hexed(_INVARIANCE_RUNS[run](batch)))
    assert all(report == reports[0] for report in reports[1:])


def _counters(report) -> tuple:
    if isinstance(report, GenieReport):
        return tuple((s.negatives, s.zeros)
                     for table in (report.path_stats, report.node_stats)
                     for s in table.values())
    return report.word_errors, report.bit_errors, report.path_error_rates


@functools.cache
def _reference_counters(run: str) -> tuple:
    return _counters(_INVARIANCE_RUNS[run](0))


@settings(max_examples=30, deadline=None)
@given(run=st.sampled_from(sorted(_INVARIANCE_RUNS)), batch=st.integers(1, 120),
       workers=st.integers(1, 6))
def test_counters_independent_of_batch_split(run, batch, workers):
    with mock.patch.object(rmrec.simulate, "_workers", lambda: workers), \
            mock.patch.object(rmrec.simulate, "_MIN_BLOCK_SYMBOLS", 1):
        report = _INVARIANCE_RUNS[run](batch)
    assert _counters(report) == _reference_counters(run)


_RECOUNT_RUNS = {(6, 2): (0.15, 60), (8, 2): (0.2, 40)}  # crossover, trials


@functools.cache
def _row_recount(m: int, r: int, transmitted: str) -> tuple:
    """Per-path error counts of psi run trial by trial through the public
    single-row path: apply_channel, then decode_psi."""
    params = CodeParams(m, r)
    p, trials = _RECOUNT_RUNS[m, r]
    options = DecoderOptions(tie_seed=4)
    path_errors = np.zeros(params.k, dtype=np.int64)
    word_errors = 0
    for trial in range(trials):
        info = np.zeros(params.k, dtype=np.uint8)
        if transmitted == "random":
            info = (stream_uniforms(31, PURPOSE_INFO, trial, 1, params.k)[0] < 0.5).astype(np.uint8)
        received = apply_channel(encode(info, params), Channel.bsc(p), master_seed=31, trial=trial)
        wrong = decode_psi(received, params, options, trial=trial).info != info
        word_errors += int(wrong.any())
        path_errors += wrong
    return word_errors, tuple(int(e) for e in path_errors)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("batch", (1, 7, 0))
@pytest.mark.parametrize("transmitted", ("all-ones", "random"))
@pytest.mark.parametrize("m, r", sorted(_RECOUNT_RUNS))
def test_psi_counters_match_row_recount(monkeypatch, m, r, transmitted, batch, workers):
    # run_wer hands psi symbol-major blocks; its counters must equal a
    # recount over the row-major public path
    monkeypatch.setattr(rmrec.simulate, "_workers", lambda: workers)
    monkeypatch.setattr(rmrec.simulate, "_MIN_BLOCK_SYMBOLS", 1)  # cut small batches too
    monkeypatch.setattr(rmrec.simulate, "_CHUNK_SYMBOLS", 768)  # several chunks per block
    p, trials = _RECOUNT_RUNS[m, r]
    report = run_wer(_config(m=m, r=r, p=p, trials=trials, master_seed=31, batch_size=batch,
                             transmitted=transmitted, options=DecoderOptions(tie_seed=4)),
                     per_path=True)
    _assert_recount(report, m, r, transmitted)


def _assert_recount(report, m: int, r: int, transmitted: str) -> None:
    word_errors, path_errors = _row_recount(m, r, transmitted)
    assert report.word_errors == word_errors > 0
    assert report.bit_errors == sum(path_errors)
    assert [rate for rate, _ in report.path_error_rates.values()] == \
        [errors / report.trials for errors in path_errors]


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("transmitted", ("all-ones", "random"))
@pytest.mark.parametrize("m, r", sorted(_RECOUNT_RUNS))
def test_capped_psi_blocks_match_row_recount(monkeypatch, m, r, transmitted, workers):
    # a cap of three rows' symbols cuts every automatic batch into many
    # symbol-major blocks; the counters must still equal the recount
    monkeypatch.setattr(rmrec.simulate, "_workers", lambda: workers)
    monkeypatch.setitem(rmrec.simulate._MAX_BLOCK_SYMBOLS, "F", 3 << m)
    blocks = []

    def recorded(y, *args, **kwargs):
        assert y.flags.f_contiguous
        blocks.append(len(y))
        return decode_batch(y, *args, **kwargs)

    monkeypatch.setattr(rmrec.simulate, "decode_batch", recorded)
    p, trials = _RECOUNT_RUNS[m, r]
    report = run_wer(_config(m=m, r=r, p=p, trials=trials, master_seed=31,
                             transmitted=transmitted, options=DecoderOptions(tie_seed=4)),
                     per_path=True)
    assert sum(blocks) == trials and max(blocks) == 3 and len(blocks) == -(-trials // 3)
    _assert_recount(report, m, r, transmitted)
