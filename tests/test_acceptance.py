"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The Monte Carlo criteria use fixed seeds; tolerances are stated inline.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from rmrec import (
    Channel,
    CodeParams,
    DecoderOptions,
    SimConfig,
    decode_batch,
    decode_op_bound,
    decode_phi,
    decode_psi,
    encode_batch,
    encode_op_count,
    enumerate_paths,
    path_statistics,
    run_wer,
    sweep,
)
from rmrec.analysis import (
    moments_for_path,
    phi_weakest_variance,
    q_function,
    residual_phi,
    residual_psi,
    weakest_path,
    weakest_variance,
)
from rmrec.core import encode
from rmrec.decoder import UNSCALED, codeword_to_info, md_biorthogonal

from oracles import (
    brute_codebook,
    generator_rows,
    md_oracle,
    pack_rows,
    packed_codebook,
    popcount,
)


def _verdict(number: int, title: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d} ({title})"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def test_criterion_01_noiseless_roundtrip():
    rng = np.random.default_rng(101)
    checked = 0
    for m in range(2, 13):
        for r in range(1, m):
            params = CodeParams(m, r)
            if m <= 4:
                blocks = ((np.arange(1 << params.k)[:, None]
                           >> np.arange(params.k - 1, -1, -1)) & 1).astype(np.uint8)
            else:
                blocks = rng.integers(0, 2, (1000, params.k)).astype(np.uint8)
            sent = encode_batch(blocks, params)
            for algorithm in ("psi", "phi"):
                for rule in ("scaled", UNSCALED):
                    got, _, _ = decode_batch(sent, params, algorithm,
                                             DecoderOptions(u_rule=rule))
                    assert np.array_equal(got, blocks), (m, r, algorithm, rule)
                    checked += blocks.shape[0]
    _verdict(1, "noiseless round-trip", True,
             f"{checked} decodings exact over m=2..12, both algorithms, both rules")


def _even_rows(params: CodeParams) -> bool:
    return bool(np.all(popcount(pack_rows(generator_rows(params))) % 2 == 0))


def test_criterion_02_distance_and_plotkin():
    details = []
    for m in range(1, 6):
        for r in range(m + 1):
            params = CodeParams(m, r)
            half = params.n // 2
            if params.k <= 26:
                book = packed_codebook(params)
                assert int(popcount(book[1:]).min()) == params.d, (m, r)
                # Plotkin membership of every codeword, via the child duals
                if r >= 1 and m >= 2:
                    first = book >> np.uint32(half) if params.n <= 32 else book >> np.uint64(half)
                    second = book & ((1 << half) - 1)
                    assert _members(first, CodeParams(m - 1, min(r, m - 1)))
                    assert _members(first ^ second, CodeParams(m - 1, r - 1))
            elif r == m - 1:
                # the code is the even-weight code: all generator rows have
                # even weight, so no codeword of weight one exists ...
                assert _even_rows(params)
                # ... and any weight-two word re-encodes to itself
                witness = np.ones(params.n, dtype=np.int8)
                witness[:2] = -1
                assert np.array_equal(
                    encode(codeword_to_info(witness, params), params), witness)
                assert params.d == 2
            else:  # r == m: the full space
                witness = np.ones(params.n, dtype=np.int8)
                witness[0] = -1
                assert np.array_equal(
                    encode(codeword_to_info(witness, params), params), witness)
                assert params.d == 1
                # both Plotkin children are full spaces, membership is trivial
                assert CodeParams(m - 1, m - 1).k == half
            details.append(f"({m},{r})")
    _verdict(2, "distance and Plotkin structure", True,
             f"codes {' '.join(details)}")


def _members(packed: np.ndarray, child: CodeParams) -> bool:
    """Exact membership of packed words in the child code via its dual.

    Uses the orthogonality of the {m, r} and {m, m-r-1} generator rows,
    which is itself verified exhaustively here before being relied on.
    """
    if child.r >= child.m:
        return True  # full space
    dual = CodeParams(child.m, child.m - child.r - 1)
    child_rows = pack_rows(generator_rows(child))
    dual_rows = pack_rows(generator_rows(dual))
    for row in child_rows:  # duality check: every pair of rows orthogonal
        if np.any(popcount(dual_rows & row) % 2):
            return False
    assert child.k + dual.k == child.n  # dimensions complement
    for row in dual_rows:
        if np.any(popcount(packed & row) % 2):
            return False
    return True


def test_criterion_03_bounded_distance():
    params = CodeParams(5, 2)
    patterns = [()] + [c for w in (1, 2, 3) for c in combinations(range(32), w)]
    assert len(patterns) == 5489
    received = np.ones((len(patterns), 32))
    for i, pattern in enumerate(patterns):
        received[i, list(pattern)] = -1.0
    options = DecoderOptions(tie_seed=202)
    for algorithm in ("psi", "phi"):
        info, _, _ = decode_batch(received, params, algorithm, options)
        failures = int(np.count_nonzero(info.any(axis=1)))
        assert failures == 0, algorithm
    _verdict(3, "bounded-distance decoding", True,
             "all 5489 patterns of weight <= 3 corrected on (5,2) by psi and phi")


def test_criterion_04_biorthogonal_exactness():
    rng = np.random.default_rng(404)
    total = 0
    for g in range(1, 6):
        book = brute_codebook(g)
        width = 1 << (g + 1)
        for _ in range(10_000):
            z = rng.normal(size=width)
            cw, _ = md_biorthogonal(z, g)
            assert np.array_equal(cw, md_oracle(z, book).astype(np.int8)), g
            total += 1
    _verdict(4, "biorthogonal FHT exactness", True,
             f"{total} random blocks matched brute-force MD for g=1..5")


def test_criterion_05_complexity_bounds():
    rng = np.random.default_rng(505)
    reference = {(7, 2): (857, 1264), (8, 2): (1753, 2800), (8, 3): (2313, 2944)}
    lines = []
    for m in range(1, 13):
        for r in range(m + 1):
            params = CodeParams(m, r)
            assert encode_op_count(params) <= params.n * min(r, m - r)
            y = rng.uniform(-1, 1, params.n)
            for algorithm in ("psi",) + (("phi",) if r >= 1 else ()):
                decode = decode_phi if algorithm == "phi" else decode_psi
                for rule in ("scaled", UNSCALED):
                    ops = decode(y, params, DecoderOptions(u_rule=rule)).op_count
                    bound = decode_op_bound(params, algorithm, rule)
                    assert ops <= bound, (m, r, algorithm, rule, ops, bound)
                    if (m, r) in reference and rule == UNSCALED:
                        published = reference[(m, r)][0 if algorithm == "psi" else 1]
                        lines.append(f"({m},{r}) {algorithm}: measured {ops} "
                                     f"vs published {published} (delta {ops - published:+d})")
    _verdict(5, "operation-count bounds", True,
             "all (m,r) with m<=12 under the closed-form bounds; reference deltas: "
             + "; ".join(lines))


def test_criterion_06_moment_validation():
    epsilon = 0.7
    params = CodeParams(10, 2)
    config = SimConfig(params=params, channel=Channel.bsc((1 - epsilon) / 2),
                       trials=100_000, master_seed=606)
    report = path_statistics(config)
    worst_mean = 0.0
    worst_rel = 0.0
    for path, stats in report.path_stats.items():
        theory = moments_for_path(params, path, epsilon)
        worst_mean = max(worst_mean, abs(stats.mean - 1.0))
        assert abs(stats.mean - 1.0) <= 0.02, path
        gap = abs(stats.variance - theory.variance)
        assert gap <= 3 * stats.variance_half_width, path
        if path.kind == "left" and path.end_size >= 4:
            rel = gap / theory.variance
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.05, path
    _verdict(6, "genie moment validation", True,
             f"(10,2) eps=0.7, 1e5 trials: worst |mean-1|={worst_mean:.4f} (<=0.02), "
             f"worst variance error {worst_rel:.4f} (<=0.05 for g>=4)")


def test_criterion_07_gaussian_prediction():
    params = CodeParams(12, 1)
    epsilon = 0.25
    mu = weakest_variance(params, epsilon)
    assert 0.05 <= mu <= 0.2
    predicted = q_function(1.0 / math.sqrt(mu))
    config = SimConfig(params=params, channel=Channel.bsc((1 - epsilon) / 2),
                       trials=1_000_000, master_seed=707)
    report = path_statistics(config)
    observed = report.path_stats[weakest_path(params)].error_rate
    ratio = observed / predicted
    _verdict(7, "Gaussian tail prediction", 1 / 1.5 <= ratio <= 1.5,
             f"(12,1) eps={epsilon}, mu={mu:.4f}: observed {observed:.3e} vs "
             f"Q-prediction {predicted:.3e}, ratio {ratio:.3f} in [0.67, 1.5]")


def test_criterion_08_weakest_path_dominance():
    params = CodeParams(10, 2)
    epsilon = residual_psi(params)
    star = weakest_path(params)
    variances = {p: moments_for_path(params, p, epsilon).variance
                 for p in enumerate_paths(params)}
    assert len(variances) == 56
    analytic_max = max(variances.values())
    assert variances[star] == analytic_max
    assert sum(1 for v in variances.values() if v == analytic_max) == 1
    config = SimConfig(params=params, channel=Channel.bsc((1 - epsilon) / 2),
                       trials=100_000, master_seed=808)
    report = path_statistics(config)
    best = report.path_stats[star]
    for path, stats in report.path_stats.items():
        assert (stats.error_rate - stats.error_half_width
                <= best.error_rate + best.error_half_width), path
    _verdict(8, "weakest-path dominance", True,
             f"(10,2) at eps={epsilon:.4f}: recursion max attained uniquely at "
             f"{star}; empirical rate {best.error_rate:.2e} dominates within CI")


def test_criterion_09_phi_beats_psi():
    params = CodeParams(8, 2)
    grid = [Channel.bsc(p) for p in (0.11, 0.13, 0.15, 0.17, 0.19, 0.21, 0.23)]
    config = SimConfig(params=params, channel=grid[0], trials=100_000,
                       master_seed=909)
    psi_reports = sweep(config, grid)
    phi_reports = sweep(SimConfig(params=params, channel=grid[0],
                                  algorithm="phi", trials=100_000,
                                  master_seed=909), grid)
    compared = []
    for channel, psi_rep, phi_rep in zip(grid, psi_reports, phi_reports):
        if not 1e-3 <= psi_rep.wer <= 0.5:
            continue
        separated = (phi_rep.wer + phi_rep.wer_half_width
                     < psi_rep.wer - psi_rep.wer_half_width)
        assert separated, (channel, psi_rep.wer, phi_rep.wer)
        compared.append(f"p={channel.param:.2f}: {phi_rep.wer:.2e} < {psi_rep.wer:.2e}")
    assert len(compared) >= 4  # the grid straddles the [1e-3, 0.5] band
    _verdict(9, "phi outperforms psi", True,
             f"(8,2), 1e5 trials, non-overlapping 95% CIs at {len(compared)} "
             f"points: " + "; ".join(compared))


def test_criterion_10_scaling_invariance():
    rng = np.random.default_rng(1010)
    total = 0
    for m, r in [(7, 2), (8, 2), (8, 3)]:
        params = CodeParams(m, r)
        y = rng.uniform(-1, 1, (10_000, params.n))
        y[rng.uniform(size=y.shape) < 0.01] = 0.0  # include exact ties
        for algorithm in ("psi", "phi"):
            scaled, _, _ = decode_batch(y, params, algorithm,
                                        DecoderOptions(tie_seed=4))
            unscaled, _, _ = decode_batch(y, params, algorithm,
                                          DecoderOptions(u_rule=UNSCALED, tie_seed=4))
            assert np.array_equal(scaled, unscaled), (m, r, algorithm)
            total += y.shape[0]
    _verdict(10, "scaling invariance", True,
             f"{total} noisy decodings identical under scaled vs unscaled rules")


def test_criterion_11_threshold_direction():
    params = CodeParams(12, 2)
    eps_phi = residual_phi(params, 1.4)
    eps_good = 1.1 * eps_phi
    eps_fail = eps_phi / params.m ** (1.0 / 2 ** (params.r - 1))
    rates = {}
    for epsilon in (eps_good, eps_fail):
        config = SimConfig(params=params, channel=Channel.bsc((1 - epsilon) / 2),
                           trials=100_000, master_seed=1111)
        report = path_statistics(config)
        rates[epsilon] = report.node_stats[(0,) * (params.r - 1)].error_rate
    good, fail = rates[eps_good], rates[eps_fail]
    mu_good = phi_weakest_variance(params, eps_good)
    _verdict(11, "threshold direction", good <= fail / 10.0,
             f"(12,2): weakest-node rate {good:.2e} at eps={eps_good:.3f} "
             f"(mu={mu_good:.3f}) vs {fail:.2e} at eps={eps_fail:.3f}; "
             f"factor {'inf' if good == 0 else f'{fail / good:.0f}'} >= 10")
