"""Deterministic Monte Carlo estimation of error rates and path statistics.

Randomness is drawn from counter-based Philox streams keyed by
(master seed, purpose) with a fixed counter budget per trial, so trial i
always sees the same channel noise no matter how trials are grouped into
batches; tie coins inside the decoder hash (seed, trial, site) directly.
Identical configurations therefore produce bit-identical reports.

Trials run in batches of a fixed size, in order.  The rows of a batch are
cut into contiguous blocks, at most one per available core unless a
block would then exceed its memory order's cap (2^19 symbols row-major,
2^20 symbol-major).  The blocks draw, decode and count on one thread
pool, opened for the run with one thread per core.  The run allocates one
decoder workspace per pool thread, and a thread passes its own to every
block it decodes.  Neither the worker count nor the block boundaries
enter the results: integer counters are summed, and the genie statistics
of a batch are put back together in row order and accumulated once, as
one array.  The batch size does enter them, because floating-point
accumulators are combined batch by batch.

Memory order is fixed per algorithm.  psi blocks run symbol-major: the
received word is built as an (n, rows) array, random codewords are encoded
into one, and the decoder walks it as contiguous per-symbol slabs (see
:mod:`rmrec.decoder`).  A cap of 2^20 symbols per block (4096 rows of
{8,2}) keeps the walk's temporaries small: 8192 rows of {8,2} ran at about 1.9
times the speed of one row-major block of 8192 rows, draw included (one
thread).  phi and genie blocks stay row-major: phi's FHT reads rows,
which are strided in a symbol-major block, and the genie
recursion's sums are wide; drawn and decoded symbol-major, a {10,2} phi
block of 2048 rows ran at about 0.67 times and a {12,1} genie block of
512 rows at about 0.83 times the row-major speed (one thread; draw and
genie with a reused workspace, 26.2-27.0 against 21.4-22.7 ms, and 256-row
symbol-major blocks 23.1-24.3 against 19.3-19.6 ms for 128-row
row-major ones).  A cap
of 2^19 symbols per row-major block (128 rows of {12,1}, 512 rows of
{10,2}) lets a worker consume the word it draws while it is still in
its core's cache.  The order never enters a result.

Dtype: every Monte Carlo word is +/-1: the drawn word by construction,
its product with a random codeword, and the awgn-hard word, which is a
BSC's.  Blocks are therefore drawn as int8 words and decoded on integers,
in a byte workspace, wherever the decoder's static bit budget certifies
the tree (see :mod:`rmrec.decoder`; psi {8,2}, {9,2}, {10,2} and {11,3},
phi {10,2} and the {12,1} genie tree among them), and drawn and decoded
in float64 elsewhere, psi {12,3} for one.  An integer decode gives the
float64 bits, and the genie's end values and support sums come back in
float64 before they are normalised, so the dtype never enters a result
either.  A symbol is drawn with one integer compare of its raw Philox word
against a threshold, written straight into the block's dtype (see
:func:`_received`), so the draw does not depend on the byte order.

Channels are binary symmetric: either with an explicit crossover p or as
the hard-decision image of an AWGN channel with deviation sigma, whose
crossover is Q(1/sigma).  By symmetry of the decoders' arithmetic the
all-ones codeword is transmitted by default; a random-codeword mode
exists to cross-check that symmetry empirically.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .core import CodeParams, Path, encode_batch, enumerate_paths
from .decoder import (
    ALG_PSI,
    PRODUCT,
    DecoderOptions,
    _is_phi,
    _pm1_workspace,
    _support_nodes,
    decode_batch,
    genie_batch,
)

BSC = "bsc"
AWGN_HARD = "awgn-hard"

ALL_ONES = "all-ones"
RANDOM_CODEWORDS = "random"

PURPOSE_CHANNEL = 1
PURPOSE_INFO = 2

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

__all__ = [
    "BSC",
    "AWGN_HARD",
    "ALL_ONES",
    "RANDOM_CODEWORDS",
    "Channel",
    "SimConfig",
    "SimReport",
    "GenieReport",
    "PathStats",
    "stream_uniforms",
    "apply_channel",
    "binomial_ci",
    "run_wer",
    "path_statistics",
    "sweep",
]


@dataclass(frozen=True)
class Channel:
    """A binary symmetric channel, possibly as a hard-decision AWGN image."""

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in (BSC, AWGN_HARD):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == BSC and not 0.0 <= self.param < 0.5:
            raise ValueError(f"crossover probability must lie in [0, 0.5), got {self.param}")
        if self.kind == AWGN_HARD and not (math.isfinite(self.param) and self.param > 0.0):
            raise ValueError(f"sigma must be finite and positive, got {self.param}")

    @classmethod
    def bsc(cls, p: float) -> "Channel":
        return cls(BSC, p)

    @classmethod
    def awgn_hard(cls, sigma: float) -> "Channel":
        return cls(AWGN_HARD, sigma)

    @property
    def crossover(self) -> float:
        if self.kind == BSC:
            return self.param
        return analysis.crossover_from_sigma(self.param)

    @property
    def residual(self) -> float:
        return 1.0 - 2.0 * self.crossover

    @property
    def sigma(self) -> float:
        """AWGN deviation matching this crossover (0.0 for a noiseless channel)."""
        if self.kind == AWGN_HARD:
            return self.param
        if self.residual == 1.0:  # p = 0, or so small that 1 - 2p rounds to 1
            return 0.0
        return analysis.sigma_from_epsilon(self.residual)

    def __str__(self) -> str:
        name = "bsc p" if self.kind == BSC else "awgn sigma"
        return f"{name}={self.param:g}"


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: code, channel, decoder, and trial budget.

    batch_size = 0 picks an automatic size from the code length; the
    value participates in the determinism contract because floating-point
    accumulators are combined in batch order.  How many worker threads
    share a batch's rows does not.
    """

    params: CodeParams
    channel: Channel
    algorithm: str = ALG_PSI
    options: DecoderOptions = field(default_factory=DecoderOptions)
    trials: int = 100_000
    master_seed: int = 0
    transmitted: str = ALL_ONES
    batch_size: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1 or self.batch_size < 0:
            raise ValueError("trials must be >= 1 and batch_size >= 0 (0: automatic)")
        _is_phi(self.params, self.algorithm)  # raises for an unknown algorithm, or phi on {m,0}
        if self.transmitted not in (ALL_ONES, RANDOM_CODEWORDS):
            raise ValueError(f"unknown transmitted mode {self.transmitted!r}")

    def effective_batch(self) -> int:
        if self.batch_size > 0:
            return self.batch_size
        auto = max(32, (1 << 22) // self.params.n)
        return min(self.trials, auto)


@dataclass
class PathStats:
    """Empirical moments of a normalized genie statistic z over the trials."""

    trials: int
    mean: float
    variance: float
    variance_half_width: float
    error_rate: float
    error_half_width: float
    negatives: int
    zeros: int


@dataclass
class SimReport:
    """Aggregated Monte Carlo results; per-path error rates are filled on demand."""

    config: SimConfig
    trials: int
    word_errors: int
    bit_errors: int
    wer: float
    wer_half_width: float
    ber: float
    ber_half_width: float
    ops_max: int
    path_error_rates: dict[Path, tuple[float, float]] | None = None


@dataclass
class GenieReport:
    """Genie-aided statistics: one entry per path, in path order, and one per
    order-1 split node, keyed by its descent prefix in sorted order."""

    config: SimConfig
    trials: int
    path_stats: dict[Path, PathStats]
    node_stats: dict[tuple[int, ...], PathStats]


def _philox(master_seed: int, purpose: int, first_trial: int,
            values_per_trial: int) -> np.random.Philox:
    """The Philox generator of the stream (master_seed, purpose), at the
    first counter of trial `first_trial`: trial i consumes ceil(values/4)
    Philox blocks starting at block i * ceil(values/4), so a trial's words
    do not depend on how a run is split into batches or row blocks."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    return np.random.Philox(key=key, counter=first_trial * -(-values_per_trial // 4))


def _raw_rows(gen: np.random.Philox, n_trials: int, values_per_trial: int) -> np.ndarray:
    """The raw words of the next n_trials trials of `gen`, a
    (n_trials, values_per_trial) uint64 view: consecutive trials are
    consecutive in counter space, the padding words of each included."""
    blocks = -(-values_per_trial // 4)
    return gen.random_raw(n_trials * blocks * 4).reshape(n_trials, blocks * 4)[
        :, :values_per_trial]


def _stream_raw(master_seed: int, purpose: int, first_trial: int,
                n_trials: int, values_per_trial: int) -> np.ndarray:
    """Raw Philox words, a (n_trials, values_per_trial) uint64 view, per
    trial as in :func:`_philox`."""
    return _raw_rows(_philox(master_seed, purpose, first_trial, values_per_trial),
                     n_trials, values_per_trial)


def stream_uniforms(master_seed: int, purpose: int, first_trial: int,
                    n_trials: int, values_per_trial: int) -> np.ndarray:
    """Uniforms in [0, 1): the top 53 bits of each raw word, times 2^-53.

    Per-trial layout as in :func:`_stream_raw`; the (n_trials,
    values_per_trial) result is independent of how a run is split.
    """
    raw = _stream_raw(master_seed, purpose, first_trial, n_trials, values_per_trial)
    return (raw >> np.uint64(11)) * 2.0 ** -53


def _threshold(p: float) -> np.uint64:
    """t = ceil(p * 2^53), for 0 <= p <= 0.5: the uniform (raw >> 11) * 2^-53
    lies below p exactly when the integer raw >> 11 lies below t, since
    p * 2^53 and the scaling by 2^-53 are exact; and so exactly when raw
    lies below t << 11, which is at most 2^63 and fits a uint64."""
    return np.uint64(math.ceil(p * 2.0 ** 53))


_HALF = np.uint64(1 << 63)  # raw < 2^63 exactly when its uniform is below 0.5


# Symbols per chunk of a received block: each chunk of rows is drawn into
# one raw buffer of this size and written into the block, so that no raw
# buffer of the block's size exists.  On one thread of a 2-core Xeon
# (numpy 2.4), 4096 rows of {8,2} drew as int8 words in a minimum of 6.1 ms
# symbol-major and 4.9 ms row-major (float32: 7.1 and 5.6 ms, float64: 7.9
# and 6.3 ms), most of it Philox; the one compare, multiply and add of
# _received took half the time of shifting the raw words and reading signs
# off float views of them.  Symbols written straight through a strided
# symbol-major block once took nearly twice as long as through the
# row-major chunk buffer; chunks of 2^15-2^17 symbols were within 6 % of
# each other in either order, 2^13 and 2^18 slower.  The chunks of a block
# draw from one Philox generator, which costs about 15 us to build: 128
# rows of {12,1} (8 chunks) drew in float32 in a minimum of 2.62 ms, against
# 2.74 ms with one generator per chunk.
_CHUNK_SYMBOLS = 1 << 16


def _received(channel: Channel, master_seed: int, n: int, rows: range,
              order: str = "C", dtype: type = np.float64) -> np.ndarray:
    """The all-ones word through the channel for trials `rows`, (len, n)
    +/-1 values of `dtype` (float64 or int8) in memory order `order`
    ("C" row-major, "F" symbol-major): a symbol flips when its uniform is
    below the crossover.

    The block is written chunk by chunk of rows, each from one buffer of
    raw words, drawn in turn from one Philox generator for the block; a
    symbol-major chunk is built row-major in a second buffer of the
    chunk's size and transposed into place.  A symbol flips when its raw
    word lies below _threshold(p) << 11 (see :func:`_threshold`): one
    compare writes 1 there and 0 elsewhere, in `dtype`, and 1 - 2x makes
    the +/-1 symbols, exactly, in either dtype.
    """
    out = np.empty((len(rows), n) if order == "C" else (n, len(rows)), dtype)
    block = out if order == "C" else out.T
    threshold = _threshold(channel.crossover) << np.uint64(11)
    step = max(1, _CHUNK_SYMBOLS // n)
    buffer = None if order == "C" else np.empty((min(step, len(rows)), n), dtype)
    gen = _philox(master_seed, PURPOSE_CHANNEL, rows.start, n)
    for start in range(0, len(rows), step):
        stop = min(start + step, len(rows))
        raw = _raw_rows(gen, stop - start, n)
        symbols = block[start:stop] if order == "C" else buffer[:stop - start]
        np.less(raw, threshold, out=symbols)
        symbols *= -2
        symbols += 1
        if order == "F":
            block[start:stop] = symbols
    return block


def apply_channel(codeword: np.ndarray, channel: Channel,
                  master_seed: int = 0, trial: int = 0) -> np.ndarray:
    """Flip each +/-1 symbol independently with the channel's crossover."""
    codeword = np.asarray(codeword, dtype=np.float64)
    if codeword.ndim != 1:
        raise ValueError("apply_channel expects a 1-D codeword, one trial")
    return codeword * _received(channel, master_seed, codeword.shape[0],
                                range(trial, trial + 1))[0]


def _workers() -> int:
    """Worker threads per batch: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# Symbols per row block at least: below this a block's numpy calls are too
# short to release the GIL for long, and two threads ran several times
# slower than one.
_MIN_BLOCK_SYMBOLS = 1 << 18
# Symbols per row block at most, by memory order.  A row-major (genie, phi)
# block is drawn and consumed while it is still in the core's cache: on one
# core, drawing and running the genie on 512 rows of {12,1} took a minimum of
# 31.9 ms as one block and 22.1 ms as 128-row (2^19-symbol) blocks, and
# drawing and decoding 2048 rows of {10,2} with phi 69.1 ms as one block
# and 44.4-45.1 ms as blocks of 2^18-2^20 symbols.  A symbol-major (psi)
# block of 2^20 symbols (4096 rows of {8,2}) keeps a thread's decoder
# workspace at 8 MiB.  While the walk allocated its temporaries node by node,
# larger blocks were slower per row because those faulted in afresh: 8192
# rows took about 1.6 times as long per row as 4096, with 1.7 times the page
# faults per row.  In a reused workspace one thread decoded 8192 rows no slower
# per row than 4096, and 16384 rows about 1.5 times slower.  One 2^19 cap
# for both orders (8 symbol-major blocks per wer-psi-8-2 batch, not 4) was
# slower in the benchmark: 180.6k-187.1k trials/s against 204.8k-215.8k
# (x0.88, 3 of 3 alternating 8 s pairs, seeds 41-43, all passing their
# fingerprints), though peak RSS fell to 52.6-53.2 from 66.7-67.6 MiB.
_MAX_BLOCK_SYMBOLS = {"C": 1 << 19, "F": 1 << 20}


def _row_blocks(work, trials: int, size: int, n: int, order: str = "C", width: int = 0,
                dtype: type = np.float64):
    """Per batch of up to `size` consecutive trials, in order: the results
    of work(rows, workspace) on its contiguous row blocks, in row order.

    A batch of rows of n symbols is cut into at most one block per worker
    thread, each of at least _MIN_BLOCK_SYMBOLS symbols when there are two
    or more.  Blocks are cut further where needed, so that none of two or
    more rows holds more than _MAX_BLOCK_SYMBOLS[order] symbols, `order`
    being the memory order ("C" or "F") the blocks are drawn in.  Every
    block runs on one thread pool, opened for the whole run with one
    thread per worker.  Each pool thread holds one decoder workspace for
    the run and passes it to every work(rows, workspace) it runs (see
    :mod:`rmrec.decoder`): `width` elements of `dtype` per row of the
    run's largest block, the workspace of the decode that work runs
    (:func:`rmrec.decoder._pm1_workspace`): bytes for an integer decode,
    float64 elements otherwise.
    """
    workers = _workers()

    def cut(start: int, rows: int) -> list[range]:
        count = min(workers, rows * n // _MIN_BLOCK_SYMBOLS)
        count = max(count, -(-rows * n // _MAX_BLOCK_SYMBOLS[order]))
        count = max(1, min(count, rows))
        bounds = [start + rows * i // count for i in range(count + 1)]
        return [range(a, b) for a, b in zip(bounds, bounds[1:])]

    # the largest block is the last of a full batch or of the final one,
    # which may run as one block where a full batch runs as two.  The
    # workspaces are the rows of one array, allocated here, in this
    # thread's arena, where it reuses memory that earlier runs left mapped.
    # Grown in a new pool thread's arena, the workspaces faulted in about
    # 1900 fresh pages per 2-thread {8,2} psi run; as one array each,
    # allocated here, they faulted in 2049 per 2-thread {12,1} genie run of
    # 1024 trials, against 4 as rows of one
    largest = max(len(cut(0, min(size, trials))[-1]), len(cut(0, trials % size or size)[-1]))
    spares = list(np.empty((workers, width * largest), dtype))
    bound = threading.local()  # .array: a pool thread's workspace, for the run
    # imported here: with the logging it pulls in, it would add about 10 ms
    # to every `import rmrec`
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers, initializer=lambda: setattr(
            bound, "array", spares.pop())) as pool:
        for start in range(0, trials, size):
            yield list(pool.map(lambda rows: work(rows, bound.array),
                                cut(start, min(size, trials - start))))


def binomial_ci(errors: float, trials: int) -> tuple[float, float]:
    """(rate, 95% half-width); Wilson interval below 30 observed errors."""
    rate = errors / trials
    if errors >= 30:
        return rate, _Z95 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    half = (_Z95 / denom) * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials
                                      + z2 / (4.0 * trials * trials))
    return rate, half


def run_wer(config: SimConfig, per_path: bool = False) -> SimReport:
    """Estimate word and bit error rates over config.trials decodings.

    psi blocks are drawn, encoded and decoded symbol-major, phi blocks
    row-major (see the module docstring); the report is the same either way.
    """
    params, n, k = config.params, config.params.n, config.params.k
    order = "F" if config.algorithm == ALG_PSI else "C"
    words, dtype, width = _pm1_workspace(params, config.algorithm, config.options.v_rule)

    def count_errors(rows: range, work: np.ndarray) -> tuple[int, np.ndarray, int]:
        received = _received(config.channel, config.master_seed, n, rows, order, words)
        if config.transmitted == ALL_ONES:
            info_true = np.zeros((len(rows), k), dtype=np.uint8)
        else:
            raw = _stream_raw(config.master_seed, PURPOSE_INFO, rows.start, len(rows), k)
            info_true = np.empty((len(rows), k), dtype=np.uint8, order=order)
            # compared row-major, then copied: the compare writing straight
            # into the symbol-major block ran about 3 times slower
            info_true[:] = raw < _HALF
            received *= encode_batch(info_true, params)
        trials_idx = np.arange(rows.start, rows.stop, dtype=np.uint64)
        info_hat, _, ops = decode_batch(received, params, config.algorithm,
                                        config.options, trials_idx, _work=work,
                                        _info_only=True)
        wrong = info_hat != info_true
        return int(np.count_nonzero(wrong.any(axis=1))), wrong.sum(axis=0), ops

    word_errors = 0
    ops = 0
    path_errors = np.zeros(k, dtype=np.int64)
    for blocks in _row_blocks(count_errors, config.trials, config.effective_batch(), n,
                              order, width, dtype):
        for block_words, block_paths, ops in blocks:
            word_errors += block_words
            path_errors += block_paths
    bit_errors = int(path_errors.sum())
    wer, wer_half = binomial_ci(word_errors, config.trials)
    ber, ber_half = binomial_ci(bit_errors, config.trials * k)
    report = SimReport(config, config.trials, word_errors, bit_errors,
                       wer, wer_half, ber, ber_half, ops)
    if per_path:
        report.path_error_rates = {
            path: binomial_ci(int(path_errors[j]), config.trials)
            for j, path in enumerate(enumerate_paths(params))
        }
    return report


class _MomentAccumulator:
    """Streaming power sums S1..S4 plus negative/zero counts per column."""

    def __init__(self, width: int) -> None:
        self.sums = np.zeros((4, width))
        self.negatives = np.zeros(width, dtype=np.int64)
        self.zeros = np.zeros(width, dtype=np.int64)
        self.trials = 0

    def add(self, z: np.ndarray) -> None:
        power = z.copy()
        for i in range(4):
            self.sums[i] += power.sum(axis=0)
            if i < 3:
                power *= z
        self.negatives += (z < 0).sum(axis=0)
        self.zeros += (z == 0).sum(axis=0)
        self.trials += z.shape[0]

    def stats(self, column: int) -> PathStats:
        n = self.trials
        s1, s2, s3, s4 = (self.sums[i, column] for i in range(4))
        mean = s1 / n
        m2 = max(s2 / n - mean ** 2, 0.0)
        variance = m2 * n / (n - 1) if n > 1 else 0.0
        m4 = (s4 / n - 4.0 * mean * s3 / n + 6.0 * mean ** 2 * s2 / n
              - 3.0 * mean ** 4)
        var_of_var = max(m4 - m2 * m2, 0.0) / n
        neg = int(self.negatives[column])
        nil = int(self.zeros[column])
        err, err_half = binomial_ci(neg + 0.5 * nil, n)
        return PathStats(n, float(mean), float(variance), _Z95 * math.sqrt(var_of_var),
                         err, err_half, neg, nil)


def path_statistics(config: SimConfig) -> GenieReport:
    """Genie-aided per-path statistics under all-ones transmission.

    For every path, the end value y(path) is normalized by its theoretical
    mean; the report carries the empirical mean (target 1), variance
    (target of the variance recursion), and the conditional error rate
    (negative end values plus half the exact zeros).  Every order-1 split
    node of the Plotkin tree additionally gets the same statistics for its
    normalized half-block support sum, keyed by the node's descent prefix.
    """
    if config.transmitted != ALL_ONES:
        raise ValueError("genie statistics require all-ones transmission")
    params = config.params
    epsilon = config.channel.residual
    paths = enumerate_paths(params)
    nodes = _support_nodes(params.m, params.r)
    path_norm = np.array([analysis.moments_for_path(params, p, epsilon).mean for p in paths])
    node_norm = np.array([2.0 ** (node.length_log - 1) * analysis.path_mean(node.prefix, epsilon)
                          for node in nodes])
    if np.any(path_norm <= 0.0) or np.any(node_norm <= 0.0):
        raise ValueError("theoretical path means underflow to zero; "
                         "the normalized statistics are not defined")
    path_acc = _MomentAccumulator(len(paths))
    node_acc = _MomentAccumulator(len(nodes))

    # the genie's forced decode is psi's under the product rule
    words, dtype, width = _pm1_workspace(params, ALG_PSI, PRODUCT, forced=True)

    def normalized(rows: range, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the end values and supports come back float64, in either dtype
        values, supports = genie_batch(
            _received(config.channel, config.master_seed, params.n, rows, "C", words), params,
            _work=work)
        return values / path_norm, supports / node_norm

    for blocks in _row_blocks(normalized, config.trials, config.effective_batch(),
                              params.n, "C", width, dtype):
        # one add per batch, on the rows in order: the same float sums for
        # any number of blocks
        path_acc.add(np.concatenate([values for values, _ in blocks]))
        node_acc.add(np.concatenate([supports for _, supports in blocks]))
    return GenieReport(config, config.trials,
                       {p: path_acc.stats(j) for j, p in enumerate(paths)},
                       {node.prefix: node_acc.stats(j) for j, node in enumerate(nodes)})


def sweep(config: SimConfig, channels: list[Channel],
          per_path: bool = False) -> list[SimReport]:
    """Run the same configuration over a grid of channels.

    The master seed is reused at every grid point (common random numbers),
    which makes monotonicity and algorithm comparisons sharper.
    """
    if not channels:
        raise ValueError("channel grid must not be empty")
    return [run_wer(replace(config, channel=ch), per_path) for ch in channels]
