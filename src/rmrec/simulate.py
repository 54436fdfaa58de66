"""Deterministic Monte Carlo estimation of error rates and path statistics.

Randomness is drawn from counter-based Philox streams keyed by
(master seed, purpose) with a fixed counter budget per trial, so trial i
always sees the same channel noise no matter how trials are grouped into
batches; tie coins inside the decoder hash (seed, trial, site) directly.
Identical configurations therefore produce bit-identical reports, and a
parallel scheduler combining batch partials in index order would too.

Channels are binary symmetric: either with an explicit crossover p or as
the hard-decision image of an AWGN channel with deviation sigma, whose
crossover is Q(1/sigma).  By symmetry of the decoders' arithmetic the
all-ones codeword is transmitted by default; a random-codeword mode
exists to cross-check that symmetry empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .core import CodeParams, Path, encode_batch, enumerate_paths
from .decoder import (
    ALG_PHI,
    ALG_PSI,
    DecoderOptions,
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
        if self.param == 0.0:
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
    accumulators are combined in batch order.
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
        if self.algorithm not in (ALG_PSI, ALG_PHI):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
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


def stream_uniforms(master_seed: int, purpose: int, first_trial: int,
                    n_trials: int, values_per_trial: int) -> np.ndarray:
    """Uniforms in [0, 1) with a fixed per-trial counter budget.

    Trial i consumes ceil(values/4) Philox blocks starting at block
    i * ceil(values/4), so the (n_trials, values_per_trial) result is
    independent of how a run is split into batches.
    """
    blocks = -(-values_per_trial // 4)
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    gen = np.random.Philox(key=key, counter=first_trial * blocks)
    raw = gen.random_raw(n_trials * blocks * 4).reshape(n_trials, blocks * 4)
    return (raw[:, :values_per_trial] >> np.uint64(11)) * 2.0 ** -53


def _channel_batches(channel: Channel, master_seed: int, n: int, trials: range,
                     size: int):
    """Per batch of up to `size` consecutive trials: their range and the
    all-ones word through the channel, (len, n) +/-1 reals."""
    for start in trials[::size]:
        batch = range(start, min(start + size, trials.stop))
        # one expression, so that no draw or flip array outlives the yield
        yield batch, np.where(stream_uniforms(master_seed, PURPOSE_CHANNEL, start, len(batch), n)
                              < channel.crossover, -1.0, 1.0)


def apply_channel(codeword: np.ndarray, channel: Channel,
                  master_seed: int = 0, trial: int = 0) -> np.ndarray:
    """Flip each +/-1 symbol independently with the channel's crossover."""
    codeword = np.asarray(codeword, dtype=np.float64)
    if codeword.ndim != 1:
        raise ValueError("apply_channel expects a 1-D codeword, one trial")
    ((_, signs),) = _channel_batches(channel, master_seed, codeword.shape[-1],
                                     range(trial, trial + 1), 1)
    return codeword * signs[0]


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
    """Estimate word and bit error rates over config.trials decodings."""
    params, n, k = config.params, config.params.n, config.params.k
    word_errors = 0
    ops = 0
    path_errors = np.zeros(k, dtype=np.int64)
    for batch, received in _channel_batches(config.channel, config.master_seed, n,
                                            range(config.trials), config.effective_batch()):
        if config.transmitted == ALL_ONES:
            info_true = np.zeros((len(batch), k), dtype=np.uint8)
        else:
            u = stream_uniforms(config.master_seed, PURPOSE_INFO, batch.start, len(batch), k)
            info_true = (u < 0.5).astype(np.uint8)
            received *= encode_batch(info_true, params)
        trials_idx = np.arange(batch.start, batch.stop, dtype=np.uint64)
        info_hat, _, ops = decode_batch(received, params, config.algorithm,
                                        config.options, trials_idx)
        wrong = info_hat != info_true
        word_errors += int(np.count_nonzero(wrong.any(axis=1)))
        path_errors += wrong.sum(axis=0)
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
    for _, received in _channel_batches(config.channel, config.master_seed, params.n,
                                        range(config.trials), config.effective_batch()):
        values, supports = genie_batch(received, params)
        path_acc.add(values / path_norm)
        node_acc.add(supports / node_norm)
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
